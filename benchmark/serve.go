package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"streamgpu/internal/dedup"
	"streamgpu/internal/mandel"
	"streamgpu/internal/server"
	"streamgpu/internal/stats"
	"streamgpu/internal/telemetry"
)

// tamper lets the negative self-test corrupt what the server returned before
// verification sees it; both hooks are nil outside tests.
type tamper struct {
	archive func(archive []byte)
	pixels  func(response []byte)
}

// served is one started server with its connected, warmed-up clients.
type served struct {
	sp     spec
	g      *generator
	srv    *server.Server
	served chan error // Serve's return value
	cls    [conns]*client
}

// setUp does everything that precedes the first timed request: generate the
// inputs, start an in-process server on a loopback port, dial, warm up.
func setUp(sp spec, seed int64, timed int, reg *telemetry.Registry, tr *tracer) (*served, error) {
	g, err := generate(sp, seed, timed)
	if err != nil {
		return nil, err
	}
	e := &served{sp: sp, g: g, served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.release()
		return nil, fmt.Errorf("listen: %w", err)
	}
	// The zero Config is streamd's defaults; only serve_gpu sets a field.
	e.srv = server.New(server.Config{GPU: sp.gpu, Metrics: reg})
	go func() { e.served <- e.srv.Serve(ln) }()
	for c := range e.cls {
		if e.cls[c], err = dial(ln.Addr().String(), c, e.g, tr); err != nil {
			e.abort()
			return nil, err
		}
	}
	if err := e.each(func(cl *client) error { return cl.warm() }); err != nil {
		e.abort()
		return nil, err
	}
	return e, nil
}

// each runs fn for every client concurrently and returns the first error.
func (e *served) each(fn func(*client) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(e.cls))
	for c, cl := range e.cls {
		wg.Add(1)
		go func(c int, cl *client) {
			defer wg.Done()
			errs[c] = fn(cl)
		}(c, cl)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// shutdownTimeout bounds the graceful drain after a run.
const shutdownTimeout = 20 * time.Second

// tearDown ends every stream (collecting archive tails) and drains the
// server; it waits until Serve has returned.
func (e *served) tearDown() error {
	err := e.each(func(cl *client) error { return cl.end() })
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if serr := e.srv.Shutdown(ctx); serr != nil {
		err = errors.Join(err, fmt.Errorf("shutdown: %w", serr))
	}
	if serr := <-e.served; serr != nil {
		err = errors.Join(err, fmt.Errorf("serve: %w", serr))
	}
	return err
}

// release closes the connections and returns the off-heap corpus and
// archives; the run's outputs cannot be verified afterwards.
func (e *served) release() {
	for _, cl := range e.cls {
		if cl != nil {
			cl.close()
		}
	}
	free(e.g.corpus)
	e.g.corpus = nil
}

// abort is tearDown and release for a set-up that failed half way.
func (e *served) abort() {
	e.release()
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // already failing; the set-up error is the one to report
	<-e.served
}

// window is what one timed window measured, before verification.
type window struct {
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	maxRSSKB   int64
	samples    []sample // every connection's, filled in by verify
	sent, recv int64    // payload bytes over the whole streams, warm-up included
	attempted  int
	failed     int
}

// rusage reads the process's CPU time and RSS high-water mark.
func rusage() (cpu time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), ru.Maxrss
}

// measure runs fn as the timed window and fills in the process-wide deltas.
func measure(fn func(t0 time.Time) error) (window, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, _ := rusage()
	t0 := time.Now()
	err := fn(t0)
	w := window{wall: time.Since(t0)}
	cpu1, rss := rusage()
	runtime.ReadMemStats(&ms1)
	w.cpu, w.maxRSSKB, w.mallocs = cpu1-cpu0, rss, ms1.Mallocs-ms0.Mallocs
	return w, err
}

// run drives every connection through its timed requests.
func (e *served) run() (window, error) {
	w, err := measure(func(t0 time.Time) error {
		return e.each(func(cl *client) error {
			if e.sp.open {
				return cl.openLoop(t0)
			}
			return cl.closedLoop(t0)
		})
	})
	for _, cl := range e.cls {
		w.attempted += len(cl.samples)
	}
	return w, err
}

// verify checks every output after the window and fills in what only it
// knows: the samples, those whose output was wrong marked not ok, the failure
// count and the streams' byte totals.
func (e *served) verify(w *window, tm tamper) {
	for _, cl := range e.cls {
		w.sent += cl.sent
		w.recv += cl.recv
		if e.sp.svc == svcMandel {
			e.verifyMandel(cl, tm)
			continue
		}
		if tm.archive != nil {
			tm.archive(cl.archive)
		}
		// A stream is good up to the first request that does not restore:
		// everything behind it is unverified and counts as failed.
		cw := newCompareWriter(e.g, cl.reqs)
		err := dedup.Restore(bytes.NewReader(cl.archive), cw)
		good := cw.verified()
		if err == nil && good == len(cl.reqs) {
			continue
		}
		for i := max(good, warmup); i < len(cl.reqs); i++ {
			cl.samples[i-warmup].ok = false
		}
	}
	for _, cl := range e.cls {
		w.samples = append(w.samples, cl.samples...)
	}
	for _, s := range w.samples {
		if !s.ok {
			w.failed++
		}
	}
}

// mandelParams is the image every mandel request asks for rows of, over the
// server's complex-plane window.
func mandelParams() mandel.Params {
	return mandel.Params{Dim: mandelDim, Niter: mandelNiter, InitA: -2.0, InitB: -1.25, Range: 2.5}
}

// verifyMandel recomputes the sampled responses (lengths were checked on
// arrival).
func (e *served) verifyMandel(cl *client, tm tamper) {
	p := mandelParams()
	row := make([]byte, mandelDim)
	for i, got := range cl.sampled {
		if tm.pixels != nil {
			tm.pixels(got)
		}
		for r := 0; r < mandelRows; r++ {
			p.ComputeRow(int(cl.reqs[i].row0)+r, row)
			if !bytes.Equal(got[r*mandelDim:(r+1)*mandelDim], row) {
				cl.samples[i-warmup].ok = false
			}
		}
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the due->verdict times of the good samples, in ms.
func (w *window) latencies() *stats.Sample {
	lat := new(stats.Sample)
	for _, s := range w.samples {
		if s.ok {
			lat.Add(ms(s.done - s.due))
		}
	}
	return lat
}

// payload is the verified payload bytes of the window.
func (w *window) payload() int64 {
	var n int64
	for _, s := range w.samples {
		if s.ok {
			n += int64(s.bytes)
		}
	}
	return n
}

// throughput is MB per wall second. The closed-loop figure is the median
// over equal slices of the window, so a noisy neighbour's burst costs one
// slice and not the run. An open loop's rate is set by its schedule, so
// there the whole-window mean is the steadier figure; file_spar's samples
// are whole runs over the input, so there it is the median sample.
func (w *window) throughput(sp spec) float64 {
	if w.wall <= 0 {
		return 0
	}
	if sp.open {
		return float64(w.payload()) / 1e6 / w.wall.Seconds()
	}
	var per []float64
	if sp.svc == svcFile {
		for _, s := range w.samples {
			if s.ok {
				per = append(per, float64(s.bytes)/1e6/(s.done-s.due).Seconds())
			}
		}
	} else {
		// A slice needs a few samples to mean anything; only runs far
		// shorter than the benchmark's own get fewer than the full count.
		n := max(1, min(slices, len(w.samples)/4))
		per = make([]float64, n)
		width := w.wall / time.Duration(n)
		for _, s := range w.samples {
			if s.ok {
				per[min(int(s.done/width), n-1)] += float64(s.bytes) / 1e6 / width.Seconds()
			}
		}
	}
	return stats.Percentile(per, 50)
}
