package dedup

import (
	"bytes"
	"slices"
	"testing"

	"streamgpu/internal/fault"
	"streamgpu/internal/workload"
)

// virtualInput is three paper-like datasets back to back, cut into 128 KiB
// batches by virtualOptions: 12 batches of real Rabin blocks.
func virtualInput() []byte {
	var in []byte
	for _, s := range workload.PaperSpecs(1.0 / 64) {
		s.Size = 512 << 10
		in = append(in, workload.Generate(s)...)
	}
	return in
}

// virtualSchedules are the fault schedules whose per-batch virtual device
// seconds must not move: want is what the parent of the warp-exact match
// fill reported through GPUOptions.Placed for each batch of virtualInput.
// "startpos-upload" is a transfer-only schedule under which some compress
// attempts run their FindMatch kernel behind a failed block-start upload,
// on the all-zero startPos slab.
var virtualSchedules = []struct {
	name   string
	faults fault.Config
	want   []float64
}{
	{"fault-free", fault.Config{},
		[]float64{
			0.000465703, 0.000430202, 0.000437055, 0.000466182, 0.000480733, 0.000415506,
			0.00040782, 0.000519247, 0.000504607, 0.000522309, 0.000450032, 0.000512415}},
	{"transient", fault.Config{Seed: 7, TransferRate: 0.08, KernelRate: 0.08}, []float64{
		0.000465703, 0.000949956, 0.000437055, 0.000891097, 0.001043972, 0.000617577,
		0.00040782, 0.00078883, 0.000504607, 0.000939356, 0.00087708, 0.000512415}},
	{"device-lost", fault.Config{Seed: 5, KillAfterOps: 7}, []float64{
		0.000241802, 0.000217917, 0.000237056, 0.000233827, 0.000270525, 0.000220053,
		0.000214735, 0.000287525, 0.000270502, 0.000299772, 0.000235977, 0.000268908}},
	{"startpos-upload", fault.Config{Seed: 3, TransferRate: 0.3}, []float64{
		0.000783622, 0.002097725, 0.00893991, 0.002491274, 0.00177864, 0.002746234,
		0.000673171, 0.003856957, 0.001673608, 0.002607469, 0.032075795, 0.002715962}},
}

// TestVirtualTimePinned requires every batch's virtual device seconds, under
// each schedule, to equal the recorded value to the last digit: the match
// fill may change what the FindMatch kernel stores at positions the encoder
// never reads, but not what any warp is charged, in either startPos state.
func TestVirtualTimePinned(t *testing.T) {
	input := virtualInput()
	for _, sc := range virtualSchedules {
		t.Run(sc.name, func(t *testing.T) {
			var got []float64
			opt := GPUOptions{Options: Options{BatchSize: 128 << 10}, MaxRetries: 8, Faults: sc.faults}
			opt.Placed = func(_ int, _ bool, v float64) { got = append(got, v) }
			var arch bytes.Buffer
			if _, _, err := CompressGPU(input, &arch, opt); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, sc.want) {
				t.Errorf("per-batch virtual seconds\n got %#v\nwant %#v", got, sc.want)
			}
		})
	}
}
