// Command benchhost runs the host-throughput suite (internal/bench.RunHost)
// once and writes the report as JSON on stdout:
//
//	go run ./cmd/benchhost
//	go run ./cmd/benchhost -size-mb 8 -min-ms 500
//
// Unlike cmd/figures, which reports virtual time on the simulated device,
// every number here is real host wall clock: Dedup MB/s end-to-end and per
// stage, Mandelbrot rows/s on the FastFlow runtime, SPSC queue ops/s, and
// heap allocations per operation on the kernel hot paths. One run is not a
// comparison: `make bench-gate` (cmd/benchcompare -workload host) builds this
// command at a base revision and from the working tree and runs the two
// alternately in pairs, at the defaults above.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"streamgpu/internal/bench"
)

func main() {
	sizeMB := flag.Int("size-mb", 4, "Dedup workload size in MiB")
	minMS := flag.Int("min-ms", 250, "minimum measuring window per entry, in milliseconds")
	workers := flag.Int("workers", 0, "parallel-pipeline width (0 = max(2, GOMAXPROCS))")
	flag.Parse()

	rep := bench.RunHost(bench.HostOptions{
		InputBytes: *sizeMB << 20,
		MinTime:    time.Duration(*minMS) * time.Millisecond,
		Workers:    *workers,
	})
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchhost: %v\n", err)
		os.Exit(1)
	}
}
