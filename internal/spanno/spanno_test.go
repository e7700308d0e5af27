package spanno

import (
	"strings"
	"testing"

	"streamgpu/internal/core"
)

// listing1 is the paper's Listing 1 annotation structure (Mandelbrot).
const listing1 = `
void mandelbrot(int dim, int niter, double init_a, double init_b, double range) {
  double step = range/((double)dim);
  [[spar::ToStream, spar::Input(dim, init_a, init_b, step, niter)]]
  for(int i=0; i<dim; i++) {
    double im = init_b + (step * i);
    [[spar::Stage, spar::Input(i, im, dim, init_a, step, niter, img), spar::Replicate(workers)]]
    for (int j=0; j<dim; j++) {
      // compute pixel
    }
    [[spar::Stage, spar::Input(img, dim, i)]] {
      ShowLine(img,dim,i);
    }
  }
}
`

func TestParseListing1(t *testing.T) {
	anns, err := Parse(listing1)
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) != 3 {
		t.Fatalf("got %d annotations, want 3", len(anns))
	}
	if anns[0].Identifier() != ToStream {
		t.Errorf("first = %v, want ToStream", anns[0].Identifier())
	}
	if in, ok := anns[0].Find(Input); !ok || len(in.Args) != 5 {
		t.Errorf("ToStream Input = %+v", in)
	}
	if anns[1].Identifier() != Stage {
		t.Errorf("second = %v, want Stage", anns[1].Identifier())
	}
	rep, ok := anns[1].Find(Replicate)
	if !ok || rep.Args[0] != "workers" {
		t.Errorf("Replicate = %+v", rep)
	}
	if _, ok := anns[2].Find(Replicate); ok {
		t.Error("last stage should not be replicated")
	}
	if anns[0].Line != 4 {
		t.Errorf("ToStream on line %d, want 4", anns[0].Line)
	}
}

func TestBuildGraphListing1(t *testing.T) {
	anns, err := Parse(listing1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(anns, map[string]int{"workers": 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := g.String()
	if !strings.Contains(s, "ToStream") || !strings.Contains(s, "S1 ×10") || !strings.Contains(s, "S2") {
		t.Errorf("graph = %q", s)
	}
}

func TestReplicateDegreeNumeric(t *testing.T) {
	anns, err := Parse(`[[spar::ToStream]] [[spar::Stage, spar::Replicate(7)]]`)
	if err != nil {
		t.Fatal(err)
	}
	if d := ReplicateDegree(anns[1], nil, 1); d != 7 {
		t.Errorf("degree = %d, want 7", d)
	}
}

func TestReplicateDegreeSymbolFallback(t *testing.T) {
	anns, err := Parse(`[[spar::ToStream]] [[spar::Stage, spar::Replicate(nw)]]`)
	if err != nil {
		t.Fatal(err)
	}
	if d := ReplicateDegree(anns[1], nil, 3); d != 3 {
		t.Errorf("unresolved symbol should use default, got %d", d)
	}
	if d := ReplicateDegree(anns[1], map[string]int{"nw": 19}, 3); d != 19 {
		t.Errorf("env lookup failed, got %d", d)
	}
}

func TestReplicateDegreeNoAttr(t *testing.T) {
	anns, err := Parse(`[[spar::ToStream]] [[spar::Stage]]`)
	if err != nil {
		t.Fatal(err)
	}
	if d := ReplicateDegree(anns[1], nil, 5); d != 1 {
		t.Errorf("stage without Replicate should be 1, got %d", d)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"stage first", `[[spar::Stage]]`, "first annotation must be spar::ToStream"},
		{"no stage", `[[spar::ToStream]]`, "at least one Stage"},
		{"nested tostream", `[[spar::ToStream]] [[spar::Stage]] [[spar::ToStream]]`, "nested"},
		{"replicate on tostream", `[[spar::ToStream, spar::Replicate(4)]] [[spar::Stage]]`, "only valid on a Stage"},
		{"unknown attr", `[[spar::Pipeline]]`, "unknown attribute"},
		{"empty input", `[[spar::ToStream, spar::Input()]] [[spar::Stage]]`, "at least one variable"},
		{"replicate two args", `[[spar::ToStream]] [[spar::Stage, spar::Replicate(a, b)]]`, "exactly one argument"},
		{"aux first", `[[spar::Input(x)]]`, "must begin with ToStream or Stage"},
		{"identifier later", `[[spar::ToStream, spar::Stage]]`, "must come first"},
		{"args on tostream", `[[spar::ToStream(x)]]`, "takes no arguments"},
		{"unterminated", `[[spar::ToStream`, "unterminated"},
		{"missing paren", `[[spar::ToStream, spar::Input(a]]`, "missing ')'"},
		{"trailing comma", `[[spar::ToStream,]]`, "trailing comma"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", tc.src, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestNonSparBracketsIgnored(t *testing.T) {
	src := `
int a[[maybe_unused]];
[[spar::ToStream]]
for (;;) {
  [[spar::Stage]]
  {}
}
arr[i][j] = 0;
`
	anns, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) != 2 {
		t.Fatalf("got %d annotations, want 2 (non-spar [[...]] must be ignored)", len(anns))
	}
}

func TestNoAnnotations(t *testing.T) {
	anns, err := Parse("plain C++ code")
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) != 0 {
		t.Fatalf("got %d annotations", len(anns))
	}
	if _, err := BuildGraph(anns, nil, 1); err == nil {
		t.Error("BuildGraph with no annotations should error")
	}
}

func TestLineNumbers(t *testing.T) {
	src := "\n\n\n\n[[spar::ToStream]]\n[[spar::Stage]]\n"
	anns, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if anns[0].Line != 5 || anns[1].Line != 6 {
		t.Errorf("lines = %d, %d; want 5, 6", anns[0].Line, anns[1].Line)
	}
}

func TestOutputAttr(t *testing.T) {
	anns, err := Parse(`[[spar::ToStream]] [[spar::Stage, spar::Output(img, n)]]`)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := anns[1].Find(Output)
	if !ok || len(out.Args) != 2 || out.Args[0] != "img" {
		t.Errorf("Output = %+v", out)
	}
}

func TestDedupFiveStageGraph(t *testing.T) {
	// The paper's Fig. 3 pipeline: 5 stages, stage 2 (SHA-1 on GPU)
	// replicated.
	src := `
[[spar::ToStream, spar::Input(file)]]
while (batch = next_batch()) {
  [[spar::Stage, spar::Input(batch), spar::Output(hashes), spar::Replicate(ngpu)]]
  { sha1_gpu(batch); }
  [[spar::Stage, spar::Input(hashes), spar::Output(dups)]]
  { check_duplicates(batch); }
  [[spar::Stage, spar::Input(dups), spar::Output(compressed)]]
  { compress_gpu(batch); }
  [[spar::Stage, spar::Input(compressed)]]
  { reorder_write(batch); }
}
`
	anns, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(anns, map[string]int{"ngpu": 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Stages) != 5 {
		t.Fatalf("graph stages = %d, want 5 (ToStream + 4)", len(g.Stages))
	}
	if g.Stages[1].Replicate != 2 {
		t.Errorf("SHA-1 stage replicate = %d, want 2", g.Stages[1].Replicate)
	}
}

func TestPureAttribute(t *testing.T) {
	anns, err := Parse(`[[spar::ToStream]] [[spar::Stage, spar::Pure, spar::Replicate(2)]] [[spar::Stage]]`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := anns[1].Find(Pure); !ok {
		t.Error("Pure attribute not parsed")
	}
	g, err := BuildGraph(anns, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Stages[1].Offload {
		t.Error("Pure stage should be marked Offload in the graph")
	}
	if g.Stages[2].Offload {
		t.Error("non-Pure stage must not be Offload")
	}
	if s := g.String(); !strings.Contains(s, "[gpu]") {
		t.Errorf("graph string should mark offload stages: %q", s)
	}
}

func TestPureOnlyOnStage(t *testing.T) {
	if _, err := Parse(`[[spar::ToStream, spar::Pure]] [[spar::Stage]]`); err == nil {
		t.Error("Pure on ToStream should be rejected")
	}
	if _, err := Parse(`[[spar::ToStream]] [[spar::Stage, spar::Pure(x)]]`); err == nil {
		t.Error("Pure with arguments should be rejected")
	}
}

func TestInstantiateRunsPipeline(t *testing.T) {
	src := `
[[spar::ToStream]]
for (;;) {
  [[spar::Stage, spar::Replicate(nw)]] { work(); }
  [[spar::Stage]] { collect(); }
}
`
	anns, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	ts, err := Instantiate(anns, map[string]int{"nw": 4}, 1, map[string]core.StageFunc{
		"S1": func(item any, emit func(any)) { emit(item.(int) * 2) },
		"S2": func(item any, emit func(any)) { out = append(out, item.(int)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if g := ts.Graph().String(); !strings.Contains(g, "S1 ×4") {
		t.Errorf("graph = %q", g)
	}
	err = ts.Run(func(emit func(any)) {
		for i := 1; i <= 10; i++ {
			emit(i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 10 {
		t.Fatalf("out = %v", out)
	}
	for i, v := range out {
		if v != (i+1)*2 {
			t.Fatalf("out[%d] = %d: instantiated pipeline wrong or unordered", i, v)
		}
	}
}

func TestInstantiateMissingBody(t *testing.T) {
	anns, err := Parse(`[[spar::ToStream]] [[spar::Stage]] [[spar::Stage]]`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Instantiate(anns, nil, 1, map[string]core.StageFunc{
		"S1": func(any, func(any)) {},
	})
	if err == nil || !strings.Contains(err.Error(), "no body bound for stage S2") {
		t.Errorf("err = %v, want missing-body error", err)
	}
}

func TestInstantiatePureMarksOffload(t *testing.T) {
	anns, err := Parse(`[[spar::ToStream]] [[spar::Stage, spar::Pure]]`)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := Instantiate(anns, nil, 1, map[string]core.StageFunc{
		"S1": func(any, func(any)) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ts.Graph().Stages[1].Offload {
		t.Error("Pure stage should be Offload in the instantiated graph")
	}
}
