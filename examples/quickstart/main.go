// Quickstart: the smallest useful SPar program — a three-stage stream
// pipeline that tokenizes lines, uppercases them in parallel, and collects
// them in order. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"streamgpu/internal/core"
)

func main() {
	lines := []string{
		"stream processing on multi-cores with gpus",
		"parallel programming models challenges",
		"spar tbb fastflow cuda opencl",
		"the batch is the unit of offload",
	}

	var out []string
	// The SPar annotation schema, as a builder: ToStream → Stage
	// (replicated) → Stage. The replicated stage keeps stream order.
	pipe := core.NewToStream(core.Input("lines")).
		Stage(func(item any, emit func(any)) {
			emit(strings.ToUpper(item.(string)))
		}, core.Replicate(4), core.Name("upper"), core.Input("lines"), core.Output("upper")).
		Stage(func(item any, emit func(any)) {
			out = append(out, item.(string))
		}, core.Name("collect"), core.Input("upper"))

	fmt.Println("activity graph:", pipe.Graph())

	err := pipe.Run(func(emit func(any)) {
		for _, l := range lines {
			emit(l)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, l := range out {
		fmt.Printf("%d: %s\n", i, l)
	}
}
