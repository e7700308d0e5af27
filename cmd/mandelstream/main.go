// Command mandelstream runs the Mandelbrot Streaming application for real
// on the host, with any of the multicore runtimes, and writes the fractal
// as a PGM image:
//
//	mandelstream -dim 1000 -niter 2000 -runtime spar -workers 8 -o out.pgm
//
// Runtimes: seq, spar (the SPar DSL), ff (FastFlow-style), tbb (TBB-style),
// gpu (the simulated fault-tolerant GPU runner; see -gpus and the -fault-*
// injector knobs).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"streamgpu/internal/fault"
	"streamgpu/internal/mandel"
	"streamgpu/internal/tbb"
	"streamgpu/internal/telemetry"
)

func main() {
	dim := flag.Int("dim", 1000, "image dimension (dim×dim)")
	niter := flag.Int("niter", 2000, "maximum escape iterations")
	rt := flag.String("runtime", "spar", "runtime: seq, spar, ff, tbb, gpu")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "compute-stage replicas")
	tokens := flag.Int("tokens", 0, "TBB max live tokens (default 2×workers)")
	timeout := flag.Duration("timeout", 0, "cancel the spar run after this long (0 = no limit)")
	gpus := flag.Int("gpus", 1, "gpu runtime: number of simulated devices")
	gpuBatch := flag.Int("gpu-batch", 32, "gpu runtime: rows per kernel launch")
	faultSeed := flag.Int64("fault-seed", 0, "gpu runtime: fault injector seed")
	faultTransfer := flag.Float64("fault-transfer", 0, "gpu runtime: transient transfer fault rate on device 0")
	faultKernel := flag.Float64("fault-kernel", 0, "gpu runtime: transient kernel fault rate on device 0")
	faultKill := flag.Int("fault-kill-after", 0, "gpu runtime: kill device 0 after N operations")
	out := flag.String("o", "", "write the image as PGM to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /metrics.json and /debug/pprof on this address (per-stage pipeline and GPU metrics)")
	traceOut := flag.String("trace-out", "", "write per-item stage enter/exit events as JSON to this file (spar and ff runtimes)")
	flag.Parse()
	// An escape count is an int32 where the frame is cached (IterCache.K),
	// so niter stops at the largest one it holds; niter 0 would divide by
	// zero in Color.
	if *dim < 1 || *niter < 1 || *niter > math.MaxInt32 {
		fmt.Fprintf(os.Stderr, "mandelstream: -dim %d -niter %d: want dim >= 1 and niter in [1, %d]\n", *dim, *niter, math.MaxInt32)
		os.Exit(2)
	}

	p := mandel.Params{Dim: *dim, Niter: *niter, InitA: -2.0, InitB: -1.25, Range: 2.5}
	if *tokens <= 0 {
		*tokens = 2 * *workers
	}

	var obs mandel.Observer
	if *metricsAddr != "" {
		obs.Metrics = telemetry.New()
		srv, err := telemetry.Serve(*metricsAddr, obs.Metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mandelstream: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("serving metrics on http://%s/metrics\n", srv.Addr)
	}
	if *traceOut != "" {
		obs.Trace = telemetry.NewStreamTracer(0)
	}

	start := time.Now()
	var im *mandel.Image
	var err error
	switch *rt {
	case "seq":
		im, _ = mandel.RunSeq(p)
	case "spar":
		im, err = runSPar(p, *workers, *timeout, obs)
	case "ff":
		im, err = mandel.RunFFObserved(p, *workers, obs)
	case "tbb":
		s := tbb.NewScheduler(*workers)
		defer s.Shutdown()
		s.SetTelemetry(obs.Metrics)
		im = mandel.RunTBBObserved(p, s, *tokens, obs)
	case "gpu":
		cfg := mandel.FTConfig{NGPUs: *gpus, BatchSize: *gpuBatch, Telemetry: obs.Metrics}
		if *faultTransfer > 0 || *faultKernel > 0 || *faultKill > 0 {
			cfg.Faults = []fault.Config{{
				Seed:         *faultSeed,
				TransferRate: *faultTransfer,
				KernelRate:   *faultKernel,
				KillAfterOps: *faultKill,
			}}
		}
		var rep mandel.FTReport
		im, rep, err = mandel.RunGPUFT(p, cfg)
		if err == nil && rep != (mandel.FTReport{}) {
			fmt.Printf("recovery: %d retries, %d failovers, %d cpu batches, %d devices lost\n",
				rep.Retries, rep.FailedOver, rep.CPUBatches, rep.DevicesLost)
		}
	default:
		fmt.Fprintf(os.Stderr, "mandelstream: unknown runtime %q\n", *rt)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mandelstream: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)
	fmt.Printf("%s: %dx%d niter=%d workers=%d in %v (%.1f Mpixel/s)\n",
		*rt, *dim, *dim, *niter, *workers, elapsed,
		float64(*dim)*float64(*dim)/elapsed.Seconds()/1e6)

	if *traceOut != "" {
		if err := telemetry.WriteTraceFile(*traceOut, nil, obs.Trace); err != nil {
			fmt.Fprintf(os.Stderr, "mandelstream: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d trace events to %s\n", len(obs.Trace.Events()), *traceOut)
	}

	if *out != "" {
		if err := writePGM(*out, im); err != nil {
			fmt.Fprintf(os.Stderr, "mandelstream: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// runSPar runs the SPar pipeline, optionally under a timeout.
func runSPar(p mandel.Params, workers int, timeout time.Duration, obs mandel.Observer) (*mandel.Image, error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return mandel.RunSParObserved(ctx, p, workers, obs)
}

// writePGM saves the frame as a binary PGM (P5).
func writePGM(path string, im *mandel.Image) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "P5\n%d %d\n255\n", im.Dim, im.Dim)
	if _, err := w.Write(im.Pix); err != nil {
		return err
	}
	return w.Flush()
}
