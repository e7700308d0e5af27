// Command benchcompare measures a change on the served-path benchmark
// (benchmark/, BENCHMARK.json) the way a claim has to be made: it builds the
// benchmark at a base revision and from the working tree, runs the two
// alternately on seeds 1..pairs (the base first on odd seeds, the tree first
// on even ones), and reports every end-to-end metric's median and quartiles
// per side, the pairs the change won and lost, whether compress_ratio is
// identical per seed, and the failed counts:
//
//	go run ./cmd/benchcompare -base <rev> -workload serve_batch_dup -pairs 10 > cmp.json
//	go run ./cmd/benchcompare -base HEAD~1 -workload all -pairs 4
//
// The base is unpacked from `git archive` into a temporary directory that is
// removed afterwards, as `make figures-cmp` does. Each run is a fresh process
// of the benchmark binary in its own checkout with the flags the contract
// fixes: --seconds is BENCHMARK.json's run_seconds, --trace 0. The JSON report
// goes to stdout and a readable table to stderr. Quartiles use the exclusive
// method of Python's statistics.quantiles, which is what the benchmark's
// spreads are quoted in.
// It exits 1 if any run failed to produce a result or verified a failure.
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
)

// contract is the part of BENCHMARK.json this command reads.
type contract struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
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

// side summarizes one metric over one side's runs; Runs is in seed order.
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
	Parent side    `json:"parent"`
	Change side    `json:"change"`
	Ratio  float64 `json:"ratio"` // change median / parent median
	Won    int     `json:"pairs_won"`
	Lost   int     `json:"pairs_lost"`
}

// counts is a per-side tally.
type counts struct {
	Parent int `json:"parent"`
	Change int `json:"change"`
}

type workloadCmp struct {
	Workload string      `json:"workload"`
	Seeds    []int       `json:"seeds"`
	Metrics  []metricCmp `json:"metrics"`
	// CompressRatioEqual is per seed: the two sides' compress_ratio agree
	// to the last digit.
	CompressRatioEqual []bool `json:"compress_ratio_equal"`
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
	Seconds    float64       `json:"seconds"`
	Pairs      int           `json:"pairs"`
	Host       string        `json:"host"`
	Workloads  []workloadCmp `json:"workloads"`
}

func main() {
	base := flag.String("base", "HEAD", "revision to compare the working tree against")
	names := flag.String("workload", "serve_batch_unique", "comma-separated workloads, or all")
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
	rep := &report{Schema: "streamgpu-benchcompare/v1", Base: base, Seconds: c.RunSeconds, Pairs: pairs,
		Host: fmt.Sprintf("%s/%s, %d CPUs, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version())}
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
	var bins [2]string
	for i, dir := range dirs {
		bins[i] = filepath.Join(tmp, [2]string{"bench.base", "bench.tree"}[i])
		build := exec.Command("go", "build", "-o", bins[i], "./benchmark")
		build.Dir, build.Stdout, build.Stderr = dir, os.Stderr, os.Stderr
		build.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOTOOLCHAIN=local", "GOPROXY=off")
		if err := build.Run(); err != nil {
			return nil, fmt.Errorf("build benchmark in %s: %w", dir, err)
		}
	}

	broken := false
	for _, name := range workloads {
		wc := workloadCmp{Workload: name}
		var res [2][]result // [side][pair]; side 0 is the base
		for seed := 1; seed <= pairs; seed++ {
			wc.Seeds = append(wc.Seeds, seed)
			order := []int{0, 1}
			if seed%2 == 0 {
				order = []int{1, 0}
			}
			for _, s := range order {
				fmt.Fprintf(os.Stderr, "benchcompare: %s seed %d %s\n", name, seed, [2]string{"parent", "change"}[s])
				r, ok := runOnce(bins[s], dirs[s], name, seed, c.RunSeconds)
				if !ok {
					broken = true
					*pick(&wc.BrokenRuns, s)++
				}
				*pick(&wc.Attempted, s) += r.Attempted
				*pick(&wc.Failed, s) += r.Failed
				res[s] = append(res[s], r)
			}
			p, c := res[0][seed-1].Metrics["compress_ratio"].Value, res[1][seed-1].Metrics["compress_ratio"].Value
			wc.CompressRatioEqual = append(wc.CompressRatioEqual, p == c)
		}
		for _, m := range c.EndToEnd {
			mc := metricCmp{Name: m.Name, Unit: m.Unit, Better: m.Better}
			for i := range res[0] {
				p, c := res[0][i].Metrics[m.Name].Value, res[1][i].Metrics[m.Name].Value
				mc.Parent.Runs = append(mc.Parent.Runs, p)
				mc.Change.Runs = append(mc.Change.Runs, c)
				if (c > p) == (m.Better == "higher") && c != p {
					mc.Won++
				} else if c != p {
					mc.Lost++
				}
			}
			mc.Parent.Q1, mc.Parent.Median, mc.Parent.Q3 = quartiles(mc.Parent.Runs)
			mc.Change.Q1, mc.Change.Median, mc.Change.Q3 = quartiles(mc.Change.Runs)
			if mc.Parent.Median != 0 {
				mc.Ratio = mc.Change.Median / mc.Parent.Median
			}
			wc.Metrics = append(wc.Metrics, mc)
		}
		printTable(&wc)
		rep.Workloads = append(rep.Workloads, wc)
		if wc.Failed.Parent+wc.Failed.Change > 0 {
			broken = true
		}
	}
	if broken {
		return rep, fmt.Errorf("some runs failed or did not verify (see broken_runs and failed)")
	}
	return rep, nil
}

// runOnce runs one workload once from its checkout and parses the result
// line; ok is false when the run failed or printed none.
func runOnce(bin, dir, workload string, seed int, seconds float64) (result, bool) {
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
	fmt.Fprintf(os.Stderr, "\n%s, %d pairs\n%-16s %-28s %-28s %7s %6s\n", wc.Workload, len(wc.Seeds),
		"metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "won")
	for _, m := range wc.Metrics {
		fmt.Fprintf(os.Stderr, "%-16s %-28s %-28s %6.3fx %3d/%d\n", m.Name, fmtSide(m.Parent), fmtSide(m.Change),
			m.Ratio, m.Won, len(wc.Seeds))
	}
	equal := 0
	for _, e := range wc.CompressRatioEqual {
		if e {
			equal++
		}
	}
	fmt.Fprintf(os.Stderr, "compress_ratio equal on %d/%d seeds; failed %d/%d parent, %d/%d change; broken runs %d parent, %d change\n",
		equal, len(wc.Seeds), wc.Failed.Parent, wc.Attempted.Parent, wc.Failed.Change, wc.Attempted.Change,
		wc.BrokenRuns.Parent, wc.BrokenRuns.Change)
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
