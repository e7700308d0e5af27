package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"streamgpu/internal/testutil"
)

func TestMain(m *testing.M) { testutil.Main(m) }

// tiny shrinks a workload to a few small requests per connection: the same
// drivers, server configuration and verification, in a fraction of a second.
func tiny(t *testing.T, sp spec, trace bool) config {
	shrink := 16
	if sp.svc == svcFile {
		shrink = 64
	}
	sp.minSize, sp.maxSize = max(sp.minSize/shrink, 256), sp.maxSize/shrink
	return config{
		sp: sp, seed: 7, seconds: 4 / sp.perSec, trace: trace,
		traceOut: filepath.Join(t.TempDir(), "spans.json"),
	}
}

// runTiny executes cfg and decodes the result line.
func runTiny(t *testing.T, cfg config) (code int, res result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code = execute(cfg, &stdout, &stderr)
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("exit %d, last line is not a result: %v\nstdout: %s\nstderr: %s", code, err, &stdout, &stderr)
	}
	return code, res
}

// TestEveryWorkload keeps the benchmark compiling and correct under go test:
// all six workloads, untraced and traced, verify their outputs and print
// every metric they promise. The runs go in parallel to stay inside tier-1's
// time budget, so goroutine leaks are checked once for the package, by
// TestMain.
func TestEveryWorkload(t *testing.T) {
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			name, defs := sp.name, endToEnd
			if trace {
				name, defs = sp.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := tiny(t, sp, trace)
				code, res := runTiny(t, cfg)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v", code, res)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(defs))
				}
				for _, m := range defs {
					v, ok := res.Metrics[m.name]
					if !ok || v.Unit != m.unit {
						t.Errorf("metric %s: got %+v (present=%v), want unit %s", m.name, v, ok, m.unit)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", m.name, v.Value)
					}
				}
				if trace {
					var doc traceDoc
					raw, err := os.ReadFile(cfg.traceOut)
					if err == nil {
						err = json.Unmarshal(raw, &doc)
					}
					if err != nil || len(doc.Spans) == 0 || len(doc.PerLayer) != len(perLayer) {
						t.Errorf("span file: %v, %d spans, %d per-layer rows", err, len(doc.Spans), len(doc.PerLayer))
					}
				}
			})
		}
	}
}

// TestTamperedOutputFails is the negative self-test: a benchmark that cannot
// fail cannot be trusted. One flipped archive byte, or one flipped pixel,
// must show as failed requests and a non-zero exit.
func TestTamperedOutputFails(t *testing.T) {
	once := func(flip func(b []byte)) func([]byte) {
		done := false
		return func(b []byte) {
			if !done && len(b) > 0 {
				flip(b)
				done = true
			}
		}
	}
	flipMiddle := func(b []byte) { b[len(b)/2] ^= 0xff }
	for _, tc := range []struct {
		workload string
		tm       tamper
	}{
		{"serve_batch_unique", tamper{archive: once(flipMiddle)}},
		{"serve_mandel", tamper{pixels: once(flipMiddle)}},
		{"file_spar", tamper{archive: once(flipMiddle)}},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			t.Parallel()
			sp, _ := findSpec(tc.workload)
			cfg := tiny(t, sp, false)
			cfg.tm = tc.tm
			code, res := runTiny(t, cfg)
			if code == 0 || res.Correct || res.Failed == 0 {
				t.Fatalf("tampered output passed: exit %d, result %+v", code, res)
			}
		})
	}
}

// TestScheduleIsSeededAndExact pins the generator's contract: the seed alone
// fixes the schedule, fresh requests never overlap within a pass, and the
// duplicate share is exact.
func TestScheduleIsSeededAndExact(t *testing.T) {
	for _, name := range []string{"serve_batch_unique", "serve_batch_dup", "serve_small"} {
		sp, _ := findSpec(name)
		sp.minSize, sp.maxSize = max(sp.minSize/64, 64), sp.maxSize/64
		const timed = 392
		a, err := generate(sp, 3, timed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(sp, 3, timed)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(sp, 4, timed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.reqs, b.reqs) || !bytes.Equal(a.corpus, b.corpus) {
			t.Errorf("%s: same seed, different inputs", name)
		}
		if reflect.DeepEqual(a.reqs, c.reqs) && bytes.Equal(a.corpus, c.corpus) {
			t.Errorf("%s: different seeds, same inputs", name)
		}
		for conn, reqs := range a.reqs {
			type region struct {
				off  int
				salt byte
			}
			seen := make(map[region]bool)
			fresh, end := 0, region{}
			for _, r := range reqs {
				k := region{r.off, r.salt}
				if seen[k] {
					continue
				}
				seen[k] = true
				fresh++
				if r.salt == end.salt && r.off < end.off {
					t.Fatalf("%s conn %d: fresh request at %d overlaps the one before it (ends %d)", name, conn, r.off, end.off)
				}
				end = region{r.off + r.size, r.salt}
			}
			want := len(reqs)
			if sp.dupEvery > 0 {
				want = len(reqs) / sp.dupEvery
			}
			if fresh != want {
				t.Errorf("%s conn %d: %d fresh requests of %d, want %d", name, conn, fresh, len(reqs), want)
			}
		}
		for _, g := range []*generator{a, b, c} {
			free(g.corpus)
		}
	}
}

// TestManifestMatchesTables keeps BENCHMARK.json, which the driver reads, in
// step with the tables this program prints from: the same workloads and the
// same metric names, units and directions, in the same order.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit, Better string }
	var manifest struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range manifest.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, sp := range specs {
		want = append(want, sp.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	for _, tc := range []struct {
		got  []metric
		defs []metricDef
	}{{manifest.EndToEnd, endToEnd}, {manifest.PerLayer, perLayer}} {
		var want []metric
		for _, m := range tc.defs {
			want = append(want, metric{m.name, m.unit, m.better})
		}
		if !reflect.DeepEqual(tc.got, want) {
			t.Errorf("manifest metrics\n%v\nwant\n%v", tc.got, want)
		}
	}
}
