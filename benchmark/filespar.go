package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"streamgpu/internal/dedup"
	"streamgpu/internal/telemetry"
)

// fileRun is file_spar's state: the input and the first timed archive,
// which every later iteration must reproduce byte for byte.
type fileRun struct {
	input []byte
	first []byte
	out   bytes.Buffer
}

// sparOptions is how file_spar calls CompressSPar: streamd's worker default,
// everything else the package's own.
func sparOptions(reg *telemetry.Registry) dedup.Options {
	return dedup.Options{Workers: runtime.GOMAXPROCS(0), Metrics: reg}
}

// setUpFile generates the input and runs one uncounted iteration so pools
// and matcher tables are warm.
func setUpFile(sp spec, seed int64) (*fileRun, error) {
	input, err := genCorpus(sp.corpus, seed, sp.maxSize)
	if err != nil {
		return nil, err
	}
	f := &fileRun{input: input}
	if _, err := dedup.CompressSPar(f.input, &f.out, sparOptions(nil)); err != nil {
		f.release()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return f, nil
}

// release returns the off-heap input.
func (f *fileRun) release() {
	free(f.input)
	f.input = nil
}

// run compresses the input iters times; each iteration is one sample.
func (f *fileRun) run(iters int, reg *telemetry.Registry, tr *tracer) (window, error) {
	var samples []sample
	var recv int64
	w, err := measure(func(t0 time.Time) error {
		for i := 0; i < iters; i++ {
			f.out.Reset()
			id := tr.begin("dedup.CompressSPar", 0, int64(i))
			start := time.Now()
			_, err := dedup.CompressSPar(f.input, &f.out, sparOptions(reg))
			end := time.Now()
			tr.end(id)
			if err != nil {
				return fmt.Errorf("iteration %d: %w", i, err)
			}
			ok := true
			if f.first == nil {
				f.first = append([]byte(nil), f.out.Bytes()...)
			} else {
				ok = bytes.Equal(f.first, f.out.Bytes())
			}
			recv += int64(f.out.Len())
			samples = append(samples, sample{
				due: start.Sub(t0), sentAt: start.Sub(t0), done: end.Sub(t0), bytes: len(f.input), ok: ok,
			})
		}
		return nil
	})
	w.samples, w.attempted = samples, iters
	w.sent, w.recv = int64(len(samples))*int64(len(f.input)), recv
	return w, err
}

// verify restores the first timed archive and compares it with the input;
// the later ones were required to equal it as they were made. If it does not
// restore, no iteration's output in ws is known good.
func (f *fileRun) verify(tm tamper, ws ...*window) {
	if tm.archive != nil {
		tm.archive(f.first)
	}
	var restored bytes.Buffer
	err := dedup.Restore(bytes.NewReader(f.first), &restored)
	good := err == nil && bytes.Equal(restored.Bytes(), f.input)
	for _, w := range ws {
		for i := range w.samples {
			if !good {
				w.samples[i].ok = false
			}
			if !w.samples[i].ok {
				w.failed++
			}
		}
	}
}
