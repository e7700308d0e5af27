// Command benchdiff compares a fresh host-benchmark report (cmd/benchhost
// output) against a committed baseline and exits non-zero on regression:
//
//	go run ./cmd/benchhost > BENCH_host.json
//	go run ./cmd/benchdiff -base BENCH_baseline.json -new BENCH_host.json
//
// Throughput thresholds are normalized by each report's Calib score (the
// machine's single-thread MB/s on a frozen scalar SHA-1), so the committed baseline remains
// meaningful on faster or slower hardware. A result fails when its value
// drops more than -max-regress below the scaled baseline, or when its
// allocs/op exceeds the baseline count by more than -alloc-slack. Entries
// with a negative allocs/op on either side are alloc-exempt (the suite
// marks multi-goroutine measurements that way). Entries with unit "x"
// (dimensionless ratios such as dedup_spar_speedup) skip calib scaling.
//
// Repeatable -require name:value flags assert absolute floors on the fresh
// report — e.g. -require dedup_spar_speedup:1.05 makes the gate fail unless
// the parallel pipeline actually beats the sequential one:
//
//	go run ./cmd/benchdiff -require dedup_spar_speedup:1.05
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"streamgpu/internal/bench"
)

// requireFlag collects repeatable -require name:value assertions.
type requireFlag struct {
	names  []string
	floors []float64
}

func (r *requireFlag) String() string {
	var parts []string
	for i := range r.names {
		parts = append(parts, fmt.Sprintf("%s:%g", r.names[i], r.floors[i]))
	}
	return strings.Join(parts, ",")
}

func (r *requireFlag) Set(s string) error {
	name, val, ok := strings.Cut(s, ":")
	if !ok || name == "" {
		return fmt.Errorf("want name:value, got %q", s)
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("bad threshold in %q: %w", s, err)
	}
	r.names = append(r.names, name)
	r.floors = append(r.floors, f)
	return nil
}

func main() {
	basePath := flag.String("base", "BENCH_baseline.json", "committed baseline report")
	newPath := flag.String("new", "BENCH_host.json", "fresh report to check")
	maxRegress := flag.Float64("max-regress", 0.15, "tolerated fractional throughput drop after calibration scaling")
	allocSlack := flag.Float64("alloc-slack", 0.25, "tolerated absolute allocs/op increase")
	var require requireFlag
	flag.Var(&require, "require", "absolute floor on a fresh result, as name:value (repeatable)")
	flag.Parse()

	base, err := loadReport(*basePath)
	if err != nil {
		fatal(err)
	}
	fresh, err := loadReport(*newPath)
	if err != nil {
		fatal(err)
	}
	entries, err := bench.Diff(base, fresh, bench.DiffOptions{
		MaxRegress: *maxRegress,
		AllocSlack: *allocSlack,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("calib: base %.1f, fresh %.1f (scale %.3f)\n",
		base.Calib, fresh.Calib, fresh.Calib/base.Calib)
	fmt.Printf("%-20s %12s %12s %7s %9s %9s\n",
		"name", "base*", "fresh", "ratio", "allocs0", "allocs1")
	for _, e := range entries {
		status := "ok"
		if e.Failed {
			status = "FAIL: " + e.Reason
		}
		fmt.Printf("%-20s %12.2f %12.2f %6.2fx %9s %9s  %s\n",
			e.Name, e.Base, e.Fresh, e.Ratio,
			fmtAllocs(e.BaseAllocs), fmtAllocs(e.NewAllocs), status)
	}
	failures := len(bench.DiffFailures(entries))
	freshByName := make(map[string]float64, len(fresh.Results))
	for _, r := range fresh.Results {
		freshByName[r.Name] = r.Value
	}
	for i, name := range require.names {
		v, ok := freshByName[name]
		switch {
		case !ok:
			fmt.Printf("require %-20s FAIL: no such result in fresh report\n", name)
			failures++
		case v < require.floors[i]:
			fmt.Printf("require %-20s FAIL: %.3f below required %.3f\n", name, v, require.floors[i])
			failures++
		default:
			fmt.Printf("require %-20s ok: %.3f >= %.3f\n", name, v, require.floors[i])
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s)\n", failures)
		os.Exit(1)
	}
	fmt.Println("benchdiff: no regressions")
}

func loadReport(path string) (bench.HostReport, error) {
	var rep bench.HostReport
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func fmtAllocs(a float64) string {
	if a < 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", a)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	os.Exit(1)
}
