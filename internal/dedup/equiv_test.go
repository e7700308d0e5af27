package dedup

import (
	"bytes"
	"testing"

	"streamgpu/internal/fault"
)

// The archive contract: every compress path, lane count and fault schedule
// writes exactly the archive of the Writer-inline reference
// CompressSeq(Options{}), and that archive restores to the input. The tests
// below check it path by path on one shared input.

const equivBatch = 128 << 10

type archiveCase struct {
	name string
	run  func(*bytes.Buffer) error
}

// equivInput returns the shared input and its reference archive.
func equivInput(t *testing.T) (input, ref []byte) {
	t.Helper()
	input = sample(1<<20 + 12345)
	return input, seqArchive(t, input, Options{BatchSize: equivBatch})
}

// checkArchives runs each case and checks it writes ref, and that the
// archive restores to input.
func checkArchives(t *testing.T, input, ref []byte, cases []archiveCase) {
	t.Helper()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var arch bytes.Buffer
			if err := c.run(&arch); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(arch.Bytes(), ref) {
				t.Fatal("archive differs from CompressSeq(Options{})")
			}
			var out bytes.Buffer
			if err := Restore(bytes.NewReader(arch.Bytes()), &out); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), input) {
				t.Fatal("restore mismatch")
			}
		})
	}
}

// TestSeqLanesArchiveIdentical covers CompressSeq with a lane count set,
// including the forced single-lane setting: the reference path compresses
// inline and ignores Lanes, so every setting writes the reference archive.
func TestSeqLanesArchiveIdentical(t *testing.T) {
	input, ref := equivInput(t)
	seq := func(lanes int) func(*bytes.Buffer) error {
		return func(w *bytes.Buffer) error {
			_, err := CompressSeq(input, w, Options{BatchSize: equivBatch, Lanes: lanes})
			return err
		}
	}
	checkArchives(t, input, ref, []archiveCase{
		{"lanes=-1", seq(-1)},
		{"lanes=2", seq(2)},
		{"lanes=4", seq(4)},
		{"lanes=8", seq(8)},
	})
}

// TestSParLanesMatchesSeqOutput covers the SPar pipeline with explicit lane
// counts.
func TestSParLanesMatchesSeqOutput(t *testing.T) {
	input, ref := equivInput(t)
	spar := func(lanes int) func(*bytes.Buffer) error {
		return func(w *bytes.Buffer) error {
			_, err := CompressSPar(input, w, Options{BatchSize: equivBatch, Workers: 3, Lanes: lanes})
			return err
		}
	}
	checkArchives(t, input, ref, []archiveCase{
		{"lanes=1", spar(1)},
		{"lanes=3", spar(3)},
		{"lanes=8", spar(8)},
	})
}

// TestProcessorLanesArchiveIdentical covers the serving-path CPU Processor
// loop with lane-parallel compression.
func TestProcessorLanesArchiveIdentical(t *testing.T) {
	input, ref := equivInput(t)
	processor := func(lanes int) func(*bytes.Buffer) error {
		return func(w *bytes.Buffer) error {
			p := NewProcessor(GPUOptions{Options: Options{Lanes: lanes}}, false)
			w.Write(runProcessor(t, input, p, equivBatch))
			return nil
		}
	}
	checkArchives(t, input, ref, []archiveCase{
		{"lanes=1", processor(1)},
		{"lanes=2", processor(2)},
		{"lanes=4", processor(4)},
		{"lanes=8", processor(8)},
	})
}

// equivSchedules are TestArchiveEquivalence's fault schedules, run with
// equivGPU's options.
var equivSchedules = []struct {
	name   string
	faults fault.Config
}{
	{"fault-free", fault.Config{}},
	{"transient", fault.Config{Seed: 33, TransferRate: 0.1, KernelRate: 0.1}},
	// The kill lands inside each batch, and transient faults shift it
	// between the hash and compress stages from batch to batch.
	{"device-loss", fault.Config{Seed: 2, KillAfterOps: 7, TransferRate: 0.1}},
}

// equivGPU is the GPU configuration the equivalence tests run faults under.
func equivGPU(faults fault.Config) GPUOptions {
	return GPUOptions{Options: Options{BatchSize: equivBatch}, MaxRetries: 8, Faults: faults}
}

// TestArchiveEquivalence covers CompressGPU fault-free and under fault
// schedules.
func TestArchiveEquivalence(t *testing.T) {
	input, ref := equivInput(t)
	var cases []archiveCase
	for _, sc := range equivSchedules {
		cases = append(cases, archiveCase{"gpu/" + sc.name, func(w *bytes.Buffer) error {
			_, _, err := CompressGPU(input, w, equivGPU(sc.faults))
			return err
		}})
	}
	checkArchives(t, input, ref, cases)
}
