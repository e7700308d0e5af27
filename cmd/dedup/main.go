// Command dedup compresses and restores files with the reimplemented
// PARSEC Dedup pipeline (Rabin chunking + SHA-1 dedup + LZSS):
//
//	dedup -c -workers 8 input.dat archive.sgdd   # compress
//	dedup -d archive.sgdd output.dat             # restore
//	dedup -graph                                 # print the SPar activity graph
//	dedup -c -gpu input.dat archive.sgdd         # compress on the simulated GPU
//
// The parallel path splits each batch's compression across one lane per core
// (at most 8); -seq is the single-threaded reference. The -gpu path runs
// SHA-1 and LZSS match-finding as kernels on a simulated device per batch,
// with retry and CPU degradation; the -fault-* knobs drive its seeded fault
// injector, and a lost device costs only the batch it was serving.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"streamgpu/internal/dedup"
	"streamgpu/internal/fault"
	"streamgpu/internal/telemetry"
)

func main() {
	compress := flag.Bool("c", false, "compress")
	decompress := flag.Bool("d", false, "restore")
	graph := flag.Bool("graph", false, "print the pipeline's activity graph and exit")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "replicas of the hash and compress stages")
	batch := flag.Int("batch", dedup.DefaultBatchSize, "fragmentation batch size in bytes")
	seq := flag.Bool("seq", false, "compress with the sequential reference implementation")
	gpuRT := flag.Bool("gpu", false, "compress on the simulated GPU (hash + match kernels)")
	timeout := flag.Duration("timeout", 0, "cancel a parallel compress after this long (0 = no limit)")
	faultSeed := flag.Int64("fault-seed", 0, "gpu: fault injector seed")
	faultTransfer := flag.Float64("fault-transfer", 0, "gpu: transient transfer fault rate")
	faultKernel := flag.Float64("fault-kernel", 0, "gpu: transient kernel fault rate")
	faultKill := flag.Int("fault-kill-after", 0, "gpu: kill the device after N operations")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address (pipeline and GPU metrics)")
	traceOut := flag.String("trace-out", "", "write per-batch stage enter/exit events as JSON to this file (SPar compress path)")
	flag.Parse()

	if *graph {
		fmt.Println(dedup.Graph(dedup.Options{Workers: *workers}))
		return
	}
	if *compress == *decompress {
		fmt.Fprintln(os.Stderr, "dedup: exactly one of -c or -d is required")
		os.Exit(2)
	}
	args := flag.Args()
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "dedup: usage: dedup -c|-d <in> <out>")
		os.Exit(2)
	}

	in, err := os.ReadFile(args[0])
	check(err)
	outF, err := os.Create(args[1])
	check(err)
	defer outF.Close()

	start := time.Now()
	if *compress {
		var st dedup.Stats
		opt := dedup.Options{BatchSize: *batch, Workers: *workers}
		if *metricsAddr != "" {
			opt.Metrics = telemetry.New()
			srv, err := telemetry.Serve(*metricsAddr, opt.Metrics)
			check(err)
			defer srv.Close()
			fmt.Printf("serving metrics on http://%s/metrics\n", srv.Addr)
		}
		if *traceOut != "" {
			opt.Trace = telemetry.NewStreamTracer(0)
		}
		switch {
		case *seq:
			st, err = dedup.CompressSeq(in, outF, opt)
		case *gpuRT:
			gopt := dedup.GPUOptions{Options: opt, Faults: fault.Config{
				Seed:         *faultSeed,
				TransferRate: *faultTransfer,
				KernelRate:   *faultKernel,
				KillAfterOps: *faultKill,
			}}
			var rep dedup.GPUReport
			st, rep, err = dedup.CompressGPU(in, outF, gopt)
			if err == nil && (rep.Retries > 0 || rep.CPUHash > 0 || rep.CPUCompress > 0 || rep.DeviceLost) {
				fmt.Printf("recovery: %d retries, %d/%d batches hashed/compressed on cpu, device lost: %v\n",
					rep.Retries, rep.CPUHash, rep.CPUCompress, rep.DeviceLost)
			}
		case *timeout > 0:
			st, err = compressWithTimeout(in, outF, opt, *timeout)
		default:
			st, err = dedup.CompressSPar(in, outF, opt)
		}
		check(err)
		el := time.Since(start)
		fmt.Printf("compressed %d -> %d bytes (ratio %.2fx) in %v (%.1f MB/s)\n",
			st.RawBytes, st.WrittenBytes, st.Ratio(), el,
			float64(st.RawBytes)/el.Seconds()/1e6)
		fmt.Printf("blocks: %d unique, %d duplicate\n", st.UniqueBlocks, st.DupBlocks)
		if *traceOut != "" {
			check(telemetry.WriteTraceFile(*traceOut, nil, opt.Trace))
			fmt.Printf("wrote %d trace events to %s\n", len(opt.Trace.Events()), *traceOut)
		}
		return
	}
	check(dedup.Restore(bytes.NewReader(in), outF))
	fmt.Printf("restored %s in %v\n", args[1], time.Since(start))
}

// compressWithTimeout runs the SPar pipeline under a deadline; expiry
// cancels the stream and surfaces as an error.
func compressWithTimeout(in []byte, outF *os.File, opt dedup.Options, d time.Duration) (dedup.Stats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return dedup.CompressSParContext(ctx, in, outF, opt)
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "dedup: %v\n", err)
		os.Exit(1)
	}
}
