package bench

import (
	"fmt"

	"streamgpu/internal/des"
	"streamgpu/internal/gpu"
	"streamgpu/internal/stats"
)

// Fig4 regenerates the Mandelbrot programming-model comparison: sequential,
// the three multicore runtimes CPU-only (19 workers), the two GPU APIs
// single-threaded (best Fig. 1 configuration), and every multicore×GPU
// combination (10 workers), for the given number of GPUs.
func (pr *Prep) Fig4(gpus int) *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("Fig. 4 — Mandelbrot across programming models (%d GPU(s))", gpus),
		Unit:  "s",
	}
	seq := pr.SeqTime().Seconds()
	add := func(label string, sec float64) {
		t.Add(stats.Row{Label: label, Value: sec, Speedup: seq / sec})
	}
	t.Add(stats.Row{Label: "Sequential", Value: seq, Speedup: 1})
	for _, fw := range []Framework{SPar, TBB, FastFlow} {
		add(string(fw), pr.RunCPUPipeline(fw, pr.Cfg.CPUWorkers).Seconds())
	}
	// GPU-only, single CPU thread: the paper runs these with 4× memory per
	// GPU (§V-A).
	for _, api := range []API{CUDA, OpenCL} {
		add(string(api), pr.RunBatched(api, 4*gpus, gpus).Seconds())
	}
	for _, fw := range []Framework{SPar, TBB, FastFlow} {
		for _, api := range []API{CUDA, OpenCL} {
			add(fmt.Sprintf("%s+%s", fw, api),
				pr.RunComboPipeline(fw, api, gpus, pr.Cfg.GPUWorkers).Seconds())
		}
	}
	return t
}

// RunCPUPipeline models the CPU-only 3-stage streaming app on a given
// runtime: source → replicated compute → ordered display, with the
// framework's queueing semantics and the host's 17 core-equivalents.
func (pr *Prep) RunCPUPipeline(fw Framework, workers int) des.Time {
	p := pr.Cfg.Params
	cal := pr.Cfg.Cal
	sim := des.New()
	cores := des.NewResource(sim, "cores", cal.EffectiveCores)
	var tokens *des.Resource
	if cap := tokenCap(fw, workers, false); cap > 0 {
		tokens = des.NewResource(sim, "tokens", cap)
	}
	in := des.NewQueue[int](sim, "rows", 512)
	out := des.NewQueue[int](sim, "done", 512)

	sim.Spawn("source", func(proc *des.Proc) {
		for i := 0; i < p.Dim; i++ {
			if tokens != nil {
				tokens.Acquire(proc, 1)
			}
			proc.Wait(des.Duration(cal.EmitNs))
			in.Put(proc, i)
		}
		in.Close()
	})
	for w := 0; w < workers; w++ {
		sim.Spawn(fmt.Sprintf("worker%d", w), func(proc *des.Proc) {
			for {
				i, ok := in.Get(proc)
				if !ok {
					return
				}
				compute := des.Duration(float64(pr.RowIters[i]) * pr.cpuIterNs())
				cores.Use(proc, 1, compute+cal.overhead(fw))
				out.Put(proc, i)
			}
		})
	}
	sim.Spawn("collector", func(proc *des.Proc) {
		for seen := 0; seen < p.Dim; seen++ {
			if _, ok := out.Get(proc); !ok {
				return
			}
			proc.Wait(pr.displayCost(1))
			if tokens != nil {
				tokens.Release(proc, 1)
			}
		}
	})
	end, err := sim.Run()
	if err != nil {
		panic(err)
	}
	return end
}

// comboItem is a batch in flight through the multicore+GPU pipeline.
type comboItem struct {
	rows int
	wait func(*des.Proc) // cudaStreamSynchronize / clWaitForEvents at the sink
}

// RunComboPipeline models the multicore+GPU apps of §IV-A: a source
// emitting 32-row batches, `workers` replicated middle stages each owning
// its own stream (and per-item host buffers, as the thread-safety rules
// require), round-robin over the available GPUs, and an ordered display
// stage that synchronizes on each item's event.
func (pr *Prep) RunComboPipeline(fw Framework, api API, gpus, workers int) des.Time {
	p := pr.Cfg.Params
	cal := pr.Cfg.Cal
	rows := pr.Cfg.BatchRows
	nBatches := (p.Dim + rows - 1) / rows
	batchBytes := int64(rows * p.Dim)
	spec := pr.Cache.BatchKernel()

	sim := des.New()
	devs := newDevices(sim, gpus, pr.Cfg.Telemetry)
	a := newAPICtx(api, sim, devs)
	var tokens *des.Resource
	if cap := tokenCap(fw, workers, true); cap > 0 {
		tokens = des.NewResource(sim, "tokens", cap)
	}
	in := des.NewQueue[int](sim, "batches", 512)
	out := des.NewQueue[comboItem](sim, "done", 512)

	sim.Spawn("source", func(proc *des.Proc) {
		for b := 0; b < nBatches; b++ {
			if tokens != nil {
				tokens.Acquire(proc, 1)
			}
			proc.Wait(des.Duration(cal.EmitNs))
			in.Put(proc, b)
		}
		in.Close()
	})
	for w := 0; w < workers; w++ {
		dev := w % gpus
		sim.Spawn(fmt.Sprintf("worker%d", w), func(proc *des.Proc) {
			q := a.queue(proc, dev)
			dImg := a.malloc(proc, dev, batchBytes)
			for {
				b, ok := in.Get(proc)
				if !ok {
					return
				}
				r := rows
				if (b+1)*rows > p.Dim {
					r = p.Dim - b*rows
				}
				proc.Wait(cal.overhead(fw))
				// Per-item pinned host buffer (the per-item
				// stream/cl_kernel pattern from §IV-A).
				hImg := gpu.NewPinnedBuf(batchBytes)
				q.launch(proc, spec, gpu.Grid1D(r*p.Dim, 128), b, rows, dImg.raw, pr.iterCycles())
				q.copyD2H(proc, hImg, dImg, int64(r*p.Dim))
				wait := q.record(proc)
				out.Put(proc, comboItem{rows: r, wait: wait})
			}
		})
	}
	sim.Spawn("collector", func(proc *des.Proc) {
		for seen := 0; seen < nBatches; seen++ {
			it, ok := out.Get(proc)
			if !ok {
				return
			}
			it.wait(proc) // last stage waits for the async copy (§IV-A)
			proc.Wait(pr.displayCost(it.rows))
			if tokens != nil {
				tokens.Release(proc, 1)
			}
		}
	})
	end, err := sim.Run()
	if err != nil {
		panic(err)
	}
	return end
}
