// Command benchcompare measures a change the way a claim has to be made: it
// builds a benchmark at a base revision and from the working tree, runs the
// two alternately over N pairs (the base first on odd pairs, the tree first
// on even ones), and reports every metric's median and quartiles per side,
// the pairs the change won and lost, and a verdict against the metric's
// bound:
//
//	go run ./cmd/benchcompare -base <rev> -workload serve_batch_dup -pairs 10 > cmp.json
//	go run ./cmd/benchcompare -base HEAD~1 -workload all -pairs 4
//	GOMAXPROCS=1 go run ./cmd/benchcompare -base <rev> -workload host -pairs 10
//
// A served workload (benchmark/, BENCHMARK.json; all means the file's six)
// runs pair p on seed p with the flags the contract fixes: --seconds is
// BENCHMARK.json's run_seconds, --trace 0. Its end-to-end metrics carry the
// file's bounds, and the report adds whether compress_ratio is identical per
// seed and the failed counts. The workload host runs cmd/benchhost, the
// host-throughput suite, at its defaults under the caller's GOMAXPROCS; each
// row is a throughput metric bounded by hostBound and an allocs_per_op metric
// bounded by 0.
//
// A metric is worse when the change's median is worse than the parent's by
// more than its bound and the change also lost at least four pairs in five.
// The second half keeps one noisy median from failing unchanged code: with
// no real difference each pair is a coin toss, so a metric loses 16 of 20
// pairs with a chance of 0.6 %, however wide the runs spread. Rows on one
// side only and allocation counts below zero (the suite's mark for an
// uncounted row) are reported but not gated.
//
// The base is unpacked from `git archive` into a temporary directory that is
// removed afterwards, as `make figures-cmp` does. Each run is a fresh process
// in its own checkout. The JSON report goes to stdout and a readable table to
// stderr. Quartiles use the exclusive method of Python's
// statistics.quantiles, which is what the benchmark's spreads are quoted in.
// It exits 1 if any metric is worse, or any run failed to produce a result
// or verified a failure.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"streamgpu/internal/bench"
)

// hostWorkload names the host-throughput suite among the workloads.
const hostWorkload = "host"

// hostBound is the worsening a host throughput row's median may show. On a
// shared 2-vCPU Xeon, at twenty pairs, unchanged code's row medians stayed
// above 0.925× in ten runs and a 15 % loss of dedup_hash read 0.893×;
// EXPERIMENTS.md, "Host rows measured in pairs".
const hostBound = 0.08

// allocsUnit marks a host row's allocation count, which is gated only when
// both sides counted it.
const allocsUnit = "allocs/op"

// contract is the part of BENCHMARK.json this command reads.
type contract struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// result is the last line a benchmark run prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// side summarizes one metric over one side's runs; Runs is in pair order.
type side struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

type metricCmp struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	Parent side    `json:"parent"`
	Change side    `json:"change"`
	Ratio  float64 `json:"ratio"` // change median / parent median
	Won    int     `json:"pairs_won"`
	Lost   int     `json:"pairs_lost"`
	// Verdict is "ok", "worse" (the change's median is worse than the
	// parent's by more than Bound, and it lost at least 4 pairs in 5), or
	// "ungated: <why>".
	Verdict string `json:"verdict"`
}

// counts is a per-side tally.
type counts struct {
	Parent int `json:"parent"`
	Change int `json:"change"`
}

type workloadCmp struct {
	Workload string `json:"workload"`
	// Seeds are the pair numbers; a served run takes its pair's as --seed.
	Seeds   []int       `json:"seeds"`
	Metrics []metricCmp `json:"metrics"`
	// CompressRatioEqual is per seed of a served workload: the two sides'
	// compress_ratio agree to the last digit.
	CompressRatioEqual []bool `json:"compress_ratio_equal,omitempty"`
	Attempted          counts `json:"attempted"`
	Failed             counts `json:"failed"`
	// BrokenRuns counts runs that exited non-zero or printed no result.
	BrokenRuns counts `json:"broken_runs"`
}

type report struct {
	Schema     string        `json:"schema"`
	Base       string        `json:"base"`
	BaseCommit string        `json:"base_commit"`
	TreeCommit string        `json:"tree_commit"`
	TreeDirty  bool          `json:"tree_dirty"`
	Seconds    float64       `json:"seconds,omitempty"` // served runs' --seconds
	Pairs      int           `json:"pairs"`
	Host       string        `json:"host"`
	Workloads  []workloadCmp `json:"workloads"`
}

func main() {
	base := flag.String("base", "HEAD", "revision to compare the working tree against")
	names := flag.String("workload", "serve_batch_unique", "comma-separated workloads (BENCHMARK.json's or host), or all")
	pairs := flag.Int("pairs", 10, "parent/change pairs per workload, on seeds 1..pairs")
	flag.Parse()
	if *pairs < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(*base, *names, *pairs)
	if rep != nil {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if eerr := enc.Encode(rep); err == nil {
			err = eerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcompare: %v\n", err)
		os.Exit(1)
	}
}

func run(base, names string, pairs int) (*report, error) {
	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return nil, err
	}
	var c contract
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if c.RunSeconds <= 0 {
		return nil, fmt.Errorf("BENCHMARK.json: run_seconds is %v", c.RunSeconds)
	}
	workloads := strings.Split(names, ",")
	if names == "all" {
		workloads = workloads[:0]
		for _, w := range c.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	rep := &report{Schema: "streamgpu-benchcompare/v1", Base: base, Pairs: pairs,
		Host: fmt.Sprintf("%s/%s, %d CPUs, GOMAXPROCS %d, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(),
			runtime.GOMAXPROCS(0), runtime.Version())}
	for _, name := range workloads {
		if name != hostWorkload {
			rep.Seconds = c.RunSeconds
		}
	}
	if rep.BaseCommit, err = git(root, "rev-parse", base+"^{commit}"); err != nil {
		return nil, err
	}
	if rep.TreeCommit, err = git(root, "rev-parse", "HEAD"); err != nil {
		return nil, err
	}
	status, err := git(root, "status", "--porcelain", "--untracked-files=no")
	if err != nil {
		return nil, err
	}
	rep.TreeDirty = status != ""

	tmp, err := os.MkdirTemp("", "benchcompare")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	baseDir := filepath.Join(tmp, "base")
	if err := os.Mkdir(baseDir, 0o755); err != nil {
		return nil, err
	}
	unpack := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", rep.BaseCommit, baseDir)
	unpack.Dir, unpack.Stderr = root, os.Stderr
	if err := unpack.Run(); err != nil {
		return nil, fmt.Errorf("unpack %s: %w", base, err)
	}
	dirs := [2]string{baseDir, root}
	bins := map[string][2]string{} // package → [base, tree] binary
	for _, name := range workloads {
		pkg := "./benchmark"
		if name == hostWorkload {
			pkg = "./cmd/benchhost"
		}
		if _, ok := bins[pkg]; ok {
			continue
		}
		var b [2]string
		for i, dir := range dirs {
			b[i] = filepath.Join(tmp, filepath.Base(pkg)+[2]string{".base", ".tree"}[i])
			build := exec.Command("go", "build", "-o", b[i], pkg)
			build.Dir, build.Stdout, build.Stderr = dir, os.Stderr, os.Stderr
			build.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOTOOLCHAIN=local", "GOPROXY=off")
			if err := build.Run(); err != nil {
				return nil, fmt.Errorf("build %s in %s: %w", pkg, dir, err)
			}
		}
		bins[pkg] = b
	}

	broken, worse := false, 0
	for _, name := range workloads {
		var wc workloadCmp
		if name == hostWorkload {
			wc = compareHost(bins["./cmd/benchhost"], dirs, pairs)
		} else {
			wc = compareServed(bins["./benchmark"], dirs, name, pairs, c)
		}
		for _, m := range wc.Metrics {
			if m.Verdict == "worse" {
				worse++
			}
		}
		printTable(&wc)
		rep.Workloads = append(rep.Workloads, wc)
		if wc.BrokenRuns.Parent+wc.BrokenRuns.Change+wc.Failed.Parent+wc.Failed.Change > 0 {
			broken = true
		}
	}
	switch {
	case broken:
		return rep, fmt.Errorf("some runs failed or did not verify (see broken_runs and failed)")
	case worse > 0:
		return rep, fmt.Errorf("%d metric(s) worse than the parent by more than their bound, losing 4 pairs in 5", worse)
	}
	return rep, nil
}

// alternate calls run for both sides (0 = parent) of pairs 1..n, the parent
// first on odd pairs and the change first on even ones.
func alternate(workload string, n int, run func(pair, s int)) {
	for pair := 1; pair <= n; pair++ {
		first := 1 - pair%2
		for _, s := range [2]int{first, 1 - first} {
			fmt.Fprintf(os.Stderr, "benchcompare: %s pair %d %s\n", workload, pair, [2]string{"parent", "change"}[s])
			run(pair, s)
		}
	}
}

// compareServed runs one served workload on seeds 1..pairs.
func compareServed(bins, dirs [2]string, name string, pairs int, c contract) workloadCmp {
	wc := workloadCmp{Workload: name}
	var res [2][]result // [side][pair]; side 0 is the base
	alternate(name, pairs, func(seed, s int) {
		r, ok := runServed(bins[s], dirs[s], name, seed, c.RunSeconds)
		if !ok {
			*pick(&wc.BrokenRuns, s)++
		}
		*pick(&wc.Attempted, s) += r.Attempted
		*pick(&wc.Failed, s) += r.Failed
		res[s] = append(res[s], r)
	})
	for i := range res[0] {
		wc.Seeds = append(wc.Seeds, i+1)
		wc.CompressRatioEqual = append(wc.CompressRatioEqual,
			res[0][i].Metrics["compress_ratio"].Value == res[1][i].Metrics["compress_ratio"].Value)
	}
	for _, m := range c.EndToEnd {
		var runs [2][]float64
		for s := range res {
			for _, r := range res[s] {
				runs[s] = append(runs[s], r.Metrics[m.Name].Value)
			}
		}
		wc.Metrics = append(wc.Metrics, compare(m, runs[0], runs[1]))
	}
	return wc
}

// runServed runs one workload once from its checkout and parses the result
// line; ok is false when the run failed or printed none.
func runServed(bin, dir, workload string, seed int, seconds float64) (result, bool) {
	var out bytes.Buffer
	cmd := exec.Command(bin, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Dir, cmd.Stdout, cmd.Stderr = dir, &out, os.Stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil {
		return r, false
	}
	return r, err == nil && r.Correct
}

// compareHost runs the host suite pairs times per side and compares every
// row's throughput and allocation count.
func compareHost(bins, dirs [2]string, pairs int) workloadCmp {
	wc := workloadCmp{Workload: hostWorkload}
	var reps [2][]bench.HostReport // [side][pair]; a broken run has no results
	alternate(hostWorkload, pairs, func(pair, s int) {
		var out bytes.Buffer
		cmd := exec.Command(bins[s])
		cmd.Dir, cmd.Stdout, cmd.Stderr = dirs[s], &out, os.Stderr
		err := cmd.Run()
		rep, perr := parseHost(out.Bytes())
		if err != nil || perr != nil {
			*pick(&wc.BrokenRuns, s)++
		}
		reps[s] = append(reps[s], rep)
	})
	for i := range reps[0] {
		wc.Seeds = append(wc.Seeds, i+1)
	}
	wc.Metrics = hostMetrics(reps[0], reps[1])
	return wc
}

// parseHost reads a cmd/benchhost report. Fields this command does not use,
// such as an older revision's calib score and hand-written before values,
// are ignored.
func parseHost(out []byte) (bench.HostReport, error) {
	var rep bench.HostReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return bench.HostReport{}, fmt.Errorf("benchhost report: %w", err)
	}
	return rep, nil
}

// hostMetrics turns two sides' host reports into two metrics per row, in
// the order rows first appear: the row's throughput, bounded by hostBound,
// and its allocs_per_op, bounded by 0.
func hostMetrics(parent, change []bench.HostReport) []metricCmp {
	type row struct {
		unit          string
		value, allocs [2][]float64 // [side][run]
	}
	var names []string
	rows := map[string]*row{}
	for s, reps := range [2][]bench.HostReport{parent, change} {
		for _, rep := range reps {
			for _, r := range rep.Results {
				w := rows[r.Name]
				if w == nil {
					w = &row{unit: r.Unit}
					rows[r.Name] = w
					names = append(names, r.Name)
				}
				w.value[s] = append(w.value[s], r.Value)
				w.allocs[s] = append(w.allocs[s], r.AllocsPerOp)
			}
		}
	}
	var ms []metricCmp
	for _, name := range names {
		w := rows[name]
		ms = append(ms,
			compare(metricDef{Name: name, Unit: w.unit, Better: "higher", Bound: hostBound}, w.value[0], w.value[1]),
			compare(metricDef{Name: name + ".allocs_per_op", Unit: allocsUnit, Better: "lower"}, w.allocs[0], w.allocs[1]))
	}
	return ms
}

// compare summarizes one metric over both sides' runs, counts the pairs won
// and lost (ties count for neither) and judges the medians against the
// metric's bound and the pairs lost against four in five.
func compare(m metricDef, parent, change []float64) metricCmp {
	mc := metricCmp{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
	mc.Parent.Runs, mc.Change.Runs = parent, change
	n := min(len(parent), len(change))
	for i := 0; i < n; i++ {
		p, c := parent[i], change[i]
		switch {
		case c == p:
		case (c > p) == (m.Better == "higher"):
			mc.Won++
		default:
			mc.Lost++
		}
	}
	if len(parent) == 0 || len(change) == 0 {
		mc.Verdict = "ungated: one side only"
		return mc
	}
	mc.Parent.Q1, mc.Parent.Median, mc.Parent.Q3 = quartiles(parent)
	mc.Change.Q1, mc.Change.Median, mc.Change.Q3 = quartiles(change)
	if mc.Parent.Median != 0 {
		mc.Ratio = mc.Change.Median / mc.Parent.Median
	}
	p, c := mc.Parent.Median, mc.Change.Median
	switch {
	case m.Unit == allocsUnit && (p < 0 || c < 0):
		mc.Verdict = "ungated: not counted"
	case 5*mc.Lost < 4*n:
		mc.Verdict = "ok"
	case m.Better == "higher" && c < p*(1-m.Bound), m.Better != "higher" && c > p*(1+m.Bound):
		mc.Verdict = "worse"
	default:
		mc.Verdict = "ok"
	}
	return mc
}

// pick returns the tally of side s (0 = parent).
func pick(c *counts, s int) *int {
	if s == 0 {
		return &c.Parent
	}
	return &c.Change
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method of Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1)-j*4) / 4 // outside [0, 1] extrapolates, as Python does
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return q(1), q(2), q(3)
}

func printTable(wc *workloadCmp) {
	w := len("metric")
	for _, m := range wc.Metrics {
		w = max(w, len(m.Name))
	}
	fmt.Fprintf(os.Stderr, "\n%s, %d pairs\n%-*s %-34s %-34s %7s %-8s  %s\n", wc.Workload, len(wc.Seeds),
		w, "metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "won-lost", "verdict")
	for _, m := range wc.Metrics {
		fmt.Fprintf(os.Stderr, "%-*s %-34s %-34s %6.3fx %3d-%-4d  %s (bound %g)\n", w, m.Name, fmtSide(m.Parent),
			fmtSide(m.Change), m.Ratio, m.Won, m.Lost, m.Verdict, m.Bound)
	}
	if wc.CompressRatioEqual != nil {
		equal := 0
		for _, e := range wc.CompressRatioEqual {
			if e {
				equal++
			}
		}
		fmt.Fprintf(os.Stderr, "compress_ratio equal on %d/%d seeds; failed %d/%d parent, %d/%d change; ",
			equal, len(wc.Seeds), wc.Failed.Parent, wc.Attempted.Parent, wc.Failed.Change, wc.Attempted.Change)
	}
	fmt.Fprintf(os.Stderr, "broken runs %d parent, %d change\n", wc.BrokenRuns.Parent, wc.BrokenRuns.Change)
}

func fmtSide(s side) string { return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3) }

// git runs a git command in dir and returns its trimmed output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}
