// Command streamvet runs the repository's custom static-analysis suite: the
// API contracts no runtime test catches, as machine checks (see DESIGN.md
// §8 and §13):
//
//	gpuwait    completion events from gpu.Stream ops must be waited on or kept
//	lockorder  lock acquisition order must be consistent across the program
//	runerr     ff/core/tbb Run/RunContext errors must be checked
//
// Diagnostics can be suppressed per line with a mandatory reason:
//
//	//streamvet:ignore <analyzer> <reason>
//
// on the flagged line or the line above. A directive without a reason is
// itself a diagnostic.
//
// Usage:
//
//	go run ./cmd/streamvet [-json] [packages]   # default ./...
//
// -json writes every diagnostic (including suppressed ones, with their
// reasons) as an indented JSON array on stdout instead of text output.
//
// Exit status: 0 when clean, 1 when diagnostics were reported, 2 on load or
// internal errors. Unlike `go vet`, streamvet also analyzes test files.
package main

import (
	"flag"
	"fmt"
	"os"

	"streamgpu/internal/analysis"
	"streamgpu/internal/analysis/gpuwait"
	"streamgpu/internal/analysis/lockorder"
	"streamgpu/internal/analysis/runerr"
)

// suite is every analyzer streamvet runs, in diagnostic-name order.
var suite = []*analysis.Analyzer{
	gpuwait.Analyzer,
	lockorder.Analyzer,
	runerr.Analyzer,
}

func main() {
	help := flag.Bool("help", false, "print analyzer documentation and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON (includes suppressed ones)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: streamvet [-help] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *help {
		for _, a := range suite {
			fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamvet:", err)
		os.Exit(2)
	}
	loader := analysis.NewLoader(dir)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamvet:", err)
		os.Exit(2)
	}
	diags, err := analysis.RunAnalyzers(pkgs, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "streamvet:", err)
		os.Exit(2)
	}
	if *jsonOut {
		if err := analysis.WriteJSON(os.Stdout, loader.Fset, dir, diags); err != nil {
			fmt.Fprintln(os.Stderr, "streamvet:", err)
			os.Exit(2)
		}
		for _, d := range diags {
			if !d.Suppressed {
				os.Exit(1)
			}
		}
		return
	}
	if analysis.PrintDiagnostics(os.Stdout, loader.Fset, diags) > 0 {
		os.Exit(1)
	}
}
