// Annotations end-to-end: the SPar compiler story in one program. The
// pipeline is *declared* as C++11-attribute text (exactly the paper's
// Listing 1 schema), parsed by the front end (internal/spanno), bound to
// Go stage bodies, and executed on the FastFlow-style runtime — the same
// source-to-source path the SPar toolchain takes. Run with:
//
//	go run ./examples/annotations
package main

import (
	"fmt"
	"log"
	"strings"

	"streamgpu/internal/core"
	"streamgpu/internal/spanno"
)

// The annotated "source": a stream region with a replicated compute stage
// (marked spar::Pure — offloadable) and an ordered collect stage.
const source = `
[[spar::ToStream, spar::Input(lines)]]
for (auto line : lines) {
  [[spar::Stage, spar::Input(lines), spar::Output(caps), spar::Replicate(workers), spar::Pure]]
  { caps = shout(line); }
  [[spar::Stage, spar::Input(caps)]]
  { print(caps); }
}
`

func main() {
	anns, err := spanno.Parse(source)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed %d annotations\n", len(anns))

	graph, err := spanno.BuildGraph(anns, map[string]int{"workers": 4}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("activity graph:", graph)

	var out []string
	pipe, err := spanno.Instantiate(anns, map[string]int{"workers": 4}, 1,
		map[string]core.StageFunc{
			"S1": func(item any, emit func(any)) { emit(strings.ToUpper(item.(string)) + "!") },
			"S2": func(item any, emit func(any)) { out = append(out, item.(string)) },
		})
	if err != nil {
		log.Fatal(err)
	}

	lines := []string{"to stream", "stage", "input", "output", "replicate"}
	if err := pipe.Run(func(emit func(any)) {
		for _, l := range lines {
			emit(l)
		}
	}); err != nil {
		log.Fatal(err)
	}
	for _, l := range out {
		fmt.Println(l)
	}
}
