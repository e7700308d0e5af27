// Command benchmark is the repository's served-path benchmark: it starts an
// in-process streamd on a loopback port, drives it over the real wire
// protocol with its own seeded generator, checks every output, and prints
// every metric by name with its unit. README.md in this directory lists the
// workloads and metrics and how they are expected to interact.
//
//	go run ./benchmark --workload serve_small --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"streamgpu/internal/dedup"
	"streamgpu/internal/stats"
	"streamgpu/internal/telemetry"
)

// config is one run of one workload.
type config struct {
	sp       spec
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	tm       tamper
}

// timed is the number of timed requests per connection (iterations for
// file_spar). With duplicates it is rounded up to whole strata so that the
// duplicate share is exact.
func (c config) timed(seconds float64) int {
	n := max(1, int(math.Round(c.sp.perSec*seconds)))
	if d := c.sp.dupEvery; d > 0 {
		n += (d - (warmup+n)%d) % d
	}
	return n
}

// setupRuns is how many times an untraced run sets up; setup_s is the
// median, and the last set-up is the one measured against.
const setupRuns = 3

// result is what a run reports: the contract's last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Diagnostics for the watchdog only: what the run was doing and how far the
// clients had got when it was declared stuck.
var (
	phase    atomic.Value // string
	verdicts atomic.Int64
)

// watchdogAfter is below the 180 s a run is allowed.
const watchdogAfter = 150 * time.Second

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all (one fresh process each)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "approximate length of the timed window; sizes the fixed work")
	trace := fs.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes the spans")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/trace/<workload>-seed<seed>.json)")
	fs.Usage = func() { usage(fs, stderr) }
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fs.Usage()
		return 2
	}
	if *name == "all" {
		return runAll(fmt.Sprint(*seed), fmt.Sprint(*seconds), fmt.Sprint(*trace), stdout, stderr)
	}
	sp, ok := findSpec(*name)
	if !ok {
		fmt.Fprintf(stderr, "unknown workload %q\n", *name)
		fs.Usage()
		return 2
	}
	cfg := config{sp: sp, seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", sp.name, cfg.seed))
	}
	return execute(cfg, stdout, stderr)
}

func usage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprintln(w, "usage: go run ./benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
	fs.PrintDefaults()
	fmt.Fprintln(w, "\nworkloads:")
	for _, s := range specs {
		fmt.Fprintf(w, "  %-20s %s\n", s.name, s.why)
	}
	for _, t := range []struct {
		title string
		defs  []metricDef
	}{{"end-to-end metrics (--trace 0)", endToEnd}, {"per-layer metrics (--trace 1)", perLayer}} {
		fmt.Fprintf(w, "\n%s:\n", t.title)
		for _, m := range t.defs {
			fmt.Fprintf(w, "  %-26s %-6s %-6s %s\n", m.name, m.unit, m.better, m.def)
		}
	}
}

// runAll runs every workload in a fresh process of this binary, so RSS,
// pools and GC state do not leak from one into the next.
func runAll(seed, seconds, trace string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, sp := range specs {
		cmd := exec.Command(self, "--workload", sp.name, "--seed", seed, "--seconds", seconds, "--trace", trace)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", sp.name, err)
			code = 1
		}
	}
	return code
}

// execute runs one workload under the watchdog, prints its metrics and
// returns the exit code: 0 only if every output was verified correct.
func execute(cfg config, stdout, stderr io.Writer) int {
	wd := time.AfterFunc(watchdogAfter, func() {
		fmt.Fprintf(stderr, "benchmark: %s stuck in %v after %v with %d verdicts received; goroutines:\n",
			cfg.sp.name, phase.Load(), watchdogAfter, verdicts.Load())
		_ = pprof.Lookup("goroutine").WriteTo(stderr, 2) // best effort on the way out
		os.Exit(3)
	})
	defer wd.Stop()

	var (
		attempted, failed int
		metrics           map[string]float64
		defs              = endToEnd
		err               error
	)
	if cfg.trace {
		defs = perLayer
		attempted, failed, metrics, err = runTraced(cfg)
	} else {
		attempted, failed, metrics, err = runEndToEnd(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.sp.name, err)
		return 1
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]value)}
	for _, m := range defs {
		res.Metrics[m.name] = value{Value: metrics[m.name], Unit: m.unit}
		fmt.Fprintf(stdout, "%s %s %v %s\n", cfg.sp.name, m.name, metrics[m.name], m.unit)
	}
	if !cfg.trace { // a traced run's table already has the row
		fmt.Fprintf(stdout, "%s failed_share %v ratio\n", cfg.sp.name, ratio(float64(failed), float64(attempted)))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d requests failed or did not verify\n", cfg.sp.name, failed, attempted)
		return 1
	}
	return 0
}

func setPhase(format string, args ...any) { phase.Store(fmt.Sprintf(format, args...)) }

// runEndToEnd is the untraced run: tracing and Config.Metrics off.
func runEndToEnd(cfg config) (attempted, failed int, metrics map[string]float64, err error) {
	var (
		setups []float64 // seconds
		e      *served
		f      *fileRun
		w      window
	)
	for k := 0; k < setupRuns; k++ {
		setPhase("set-up %d", k)
		// Drop the previous inputs before generating the next, or two
		// would be resident at once and set the RSS high-water mark.
		if e != nil {
			err := e.tearDown()
			e.release()
			if err != nil {
				return 0, 0, nil, fmt.Errorf("tear-down of set-up %d: %w", k-1, err)
			}
		}
		if f != nil {
			f.release()
		}
		e, f = nil, nil
		runtime.GC()
		start := time.Now()
		if cfg.sp.svc == svcFile {
			f, err = setUpFile(cfg.sp, cfg.seed)
		} else {
			e, err = setUp(cfg.sp, cfg.seed, cfg.timed(cfg.seconds), nil, nil)
		}
		if err != nil {
			return 0, 0, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	setPhase("timed window")
	if f != nil {
		defer f.release()
		if w, err = f.run(cfg.timed(cfg.seconds), nil, nil); err != nil {
			return 0, 0, nil, err
		}
		setPhase("verification")
		f.verify(cfg.tm, &w)
	} else {
		defer e.release()
		w, err = e.run()
		if terr := e.tearDown(); err == nil {
			err = terr
		}
		if err != nil {
			return 0, 0, nil, err
		}
		setPhase("verification")
		e.verify(&w, cfg.tm)
	}

	lat := w.latencies()
	payload := float64(w.payload())
	metrics = map[string]float64{
		"throughput_mb_s": w.throughput(cfg.sp),
		"latency_p50_ms":  lat.Percentile(50),
		"cpu_s_per_gb":    ratio(w.cpu.Seconds(), payload/1e9),
		"mallocs_per_mb":  ratio(float64(w.mallocs), payload/1e6),
		"peak_rss_mb":     float64(w.maxRSSKB) * 1024 / 1e6,
		"compress_ratio":  ratio(float64(w.recv), float64(w.sent)),
		"setup_s":         stats.Percentile(setups, 50),
	}
	return w.attempted, w.failed, metrics, nil
}

// runTraced is the separate traced run: two half-length windows in one
// process, the first as in an untraced run, the second with Config.Metrics
// and client spans on (their throughput difference is the tracing cost),
// then the replay and the queue rows, all written out with the spans.
func runTraced(cfg config) (attempted, failed int, metrics map[string]float64, err error) {
	t := &traced{sp: cfg.sp, tr: newTracer()}
	reg := telemetry.New()
	n := cfg.timed(cfg.seconds / 2)
	windows := t.servedWindows
	if cfg.sp.svc == svcFile {
		windows = t.fileWindows
	}
	g, release, err := windows(cfg, n, reg)
	if release != nil {
		defer release()
	}
	if err != nil {
		return 0, 0, nil, err
	}
	setPhase("replay")
	if cfg.sp.svc == svcMandel {
		t.rc, err = replayMandel(g, replayN(cfg.sp), t.tr)
	} else {
		t.rc, err = replayDedup(g, replayN(cfg.sp), cfg.sp.gpu, t.tr)
	}
	if err != nil {
		return 0, 0, nil, err
	}
	setPhase("queue rows")
	if t.perItem, err = micro(t.tr); err != nil {
		return 0, 0, nil, err
	}

	metrics = t.perLayerValues()
	doc := traceDoc{Workload: cfg.sp.name, Seed: cfg.seed, PerLayer: metrics}
	if err := t.tr.write(cfg.traceOut, doc); err != nil {
		return 0, 0, nil, fmt.Errorf("write spans: %w", err)
	}
	return t.untraced.attempted + t.window.attempted, t.untraced.failed + t.window.failed, metrics, nil
}

// servedWindows runs the untraced and the traced half window of a served
// workload. It returns the generator whose requests the replay walks and the
// function that releases it.
func (t *traced) servedWindows(cfg config, n int, reg *telemetry.Registry) (*generator, func(), error) {
	t.pipeline, t.process, t.sinkStage = "serve-dedup", []string{"process"}, "write+respond"
	if cfg.sp.svc == svcMandel {
		t.pipeline, t.process, t.sinkStage = "serve-mandel", []string{"compute"}, "respond"
	}
	var e *served
	for _, traced := range []bool{false, true} {
		setPhase("set-up (traced=%v)", traced)
		if e != nil {
			e.release()
		}
		var err error
		if traced {
			e, err = setUp(cfg.sp, cfg.seed, n, reg, t.tr)
		} else {
			e, err = setUp(cfg.sp, cfg.seed, n, nil, nil)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setPhase("timed window (traced=%v)", traced)
		s0 := reg.Snapshot()
		w, err := e.run()
		s1 := reg.Snapshot()
		if terr := e.tearDown(); err == nil {
			err = terr
		}
		if err != nil {
			return nil, e.release, err
		}
		e.verify(&w, cfg.tm)
		if traced {
			t.window, t.s0, t.s1 = w, s0, s1
		} else {
			t.untraced = w
		}
	}
	return e.g, e.release, nil
}

// fileWindows is servedWindows for file_spar, plus the single-threaded
// baseline on the same input. The replay walks the input's first MiBs as
// 1 MiB requests, which is how CompressSPar fragments it.
func (t *traced) fileWindows(cfg config, n int, reg *telemetry.Registry) (*generator, func(), error) {
	t.pipeline, t.process, t.sinkStage = "dedup", []string{"hash", "compress"}, "reorder+write"
	setPhase("set-up")
	f, err := setUpFile(cfg.sp, cfg.seed)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	setPhase("timed windows")
	if t.untraced, err = f.run(n, nil, nil); err != nil {
		return nil, f.release, err
	}
	t.s0 = reg.Snapshot()
	if t.window, err = f.run(n, reg, t.tr); err != nil {
		return nil, f.release, err
	}
	t.s1 = reg.Snapshot()
	f.verify(cfg.tm, &t.untraced, &t.window)

	setPhase("sequential baseline")
	var seq bytes.Buffer
	id := t.tr.begin("dedup.CompressSeq", 0, -1)
	start := time.Now()
	_, err = dedup.CompressSeq(f.input, &seq, dedup.Options{Lanes: -1})
	took := time.Since(start)
	t.tr.end(id)
	if err != nil {
		return nil, f.release, fmt.Errorf("CompressSeq: %w", err)
	}
	if !bytes.Equal(seq.Bytes(), f.first) {
		t.window.failed++ // the two drivers must produce one archive
	}
	t.seqMBs = float64(len(f.input)) / 1e6 / took.Seconds()

	g := &generator{sp: spec{svc: svcDedup, maxSize: dedup.DefaultBatchSize}, corpus: f.input}
	for off := 0; off < len(f.input); off += dedup.DefaultBatchSize {
		g.reqs[0] = append(g.reqs[0], request{off: off, size: min(dedup.DefaultBatchSize, len(f.input)-off)})
	}
	return g, f.release, nil
}
