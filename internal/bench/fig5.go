package bench

import (
	"fmt"
	"slices"

	"streamgpu/internal/dedup"
	"streamgpu/internal/des"
	"streamgpu/internal/gpu"
	"streamgpu/internal/lzss"
	"streamgpu/internal/sha1x"
	"streamgpu/internal/stats"
	"streamgpu/internal/workload"
)

// DedupPrep is the per-dataset precomputation shared by every Fig. 5
// configuration: the batches with their Rabin boundaries, per-block SHA-1
// hashes, the fast GPU kernel's input (lzss.Matches.Fill), and the
// stream-order dedup outcome (unique/written byte counts per batch, which
// drive the CPU-side costs).
type DedupPrep struct {
	Name    string
	Size    int64
	Batches []*dedupBatch
}

// dedupBatch carries one batch's precomputed state.
type dedupBatch struct {
	data     []byte
	startPos []int32
	spBytes  []byte // startPos serialized for the device
	matches  lzss.Matches
	blocks   int
	// Stream-order dedup outcome.
	uniqueBlocks int
	uniqueBytes  int64 // raw bytes of first-seen blocks
	writtenBytes int64 // archive bytes for this batch
}

// NewDedupPrep fragments, fingerprints and match-fills one dataset.
// batchBytes scales the paper's 1 MB fragmentation with the dataset (pass 0
// for the full 1 MB); reduced-scale runs shrink batches proportionally so
// the batch *count* — which drives pipeline parallelism — stays realistic.
func NewDedupPrep(spec workload.Spec, batchBytes int) *DedupPrep {
	if batchBytes <= 0 {
		batchBytes = dedup.DefaultBatchSize
	}
	data := workload.Generate(spec)
	pr := &DedupPrep{Name: spec.Kind.String(), Size: int64(len(data))}
	seen := make(map[[sha1x.Size]byte]bool)
	var sink firstLens
	dedup.FragmentInto(data, batchBytes, func(b *dedup.Batch) {
		defer b.Release()
		b.HashBlocks()
		db := &dedupBatch{
			data:     b.Data,
			startPos: slices.Clone(b.StartPos),
			blocks:   b.NBlocks(),
		}
		db.spBytes = make([]byte, len(b.StartPos)*4)
		sha1x.PutStartPos(db.spBytes, b.StartPos)
		sink.first, sink.lens = sink.first[:0], make([]int, b.NBlocks())
		for _, h := range b.Hashes {
			sink.first = append(sink.first, !seen[h])
			seen[h] = true
		}
		// newDevices builds every Fig. 5 device from this spec.
		db.matches.Fill(0, b.Data, b.StartPos, gpu.TitanXPSpec().WarpSize, &sink)
		for k, first := range sink.first {
			if !first {
				db.writtenBytes += 2 // a dup record
				continue
			}
			lo, hi := b.Block(k)
			db.uniqueBlocks++
			db.uniqueBytes += int64(hi - lo)
			db.writtenBytes += int64(min(sink.lens[k], hi-lo)) + 4 // raw when it does not shrink
		}
		pr.Batches = append(pr.Batches, db)
	})
	return pr
}

// firstLens is the BlockSink NewDedupPrep fills through: it encodes each
// first sighting (first[k]) into its lane's scratch arena and keeps only
// the encoding's length.
type firstLens struct {
	first []bool
	lens  []int
}

func (s *firstLens) EncodeLane(_, k0, k1 int, enc func(dst []byte, k int, keep bool) []byte) {
	var arena []byte
	for k := k0; k < k1; k++ {
		arena = enc(arena[:0], k, s.first[k])
		s.lens[k] = len(arena)
	}
}

// DedupVariant selects one Fig. 5 configuration.
type DedupVariant struct {
	Label   string
	API     API // "" = CPU only
	Batched bool
	Spaces  int // memory spaces (streams) per device
	GPUs    int
}

// Fig5Variants is the paper's configuration set.
func Fig5Variants() []DedupVariant {
	v := []DedupVariant{{Label: "SPar (CPU, 19 replicas)"}}
	for _, api := range []API{CUDA, OpenCL} {
		v = append(v, DedupVariant{Label: fmt.Sprintf("SPar+%s no batch", api), API: api, Spaces: 1, GPUs: 1})
	}
	for _, api := range []API{CUDA, OpenCL} {
		v = append(v, DedupVariant{Label: fmt.Sprintf("SPar+%s batch", api), API: api, Batched: true, Spaces: 1, GPUs: 1})
	}
	for _, api := range []API{CUDA, OpenCL} {
		v = append(v, DedupVariant{Label: fmt.Sprintf("SPar+%s batch 2x mem", api), API: api, Batched: true, Spaces: 2, GPUs: 1})
	}
	for _, api := range []API{CUDA, OpenCL} {
		v = append(v, DedupVariant{Label: fmt.Sprintf("SPar+%s batch 2 GPUs", api), API: api, Batched: true, Spaces: 1, GPUs: 2})
	}
	for _, api := range []API{CUDA, OpenCL} {
		v = append(v, DedupVariant{Label: fmt.Sprintf("SPar+%s batch 2x mem 2 GPUs", api), API: api, Batched: true, Spaces: 2, GPUs: 2})
	}
	return v
}

// Fig5 regenerates the Dedup throughput figure for one dataset.
func Fig5(dp *DedupPrep, cal Calibration) *stats.Table {
	t := &stats.Table{
		Title: fmt.Sprintf("Fig. 5 — Dedup throughput, dataset %s (%.1f MB)", dp.Name, float64(dp.Size)/1e6),
		Unit:  "MB/s",
	}
	for _, v := range Fig5Variants() {
		var end des.Time
		if v.API == "" {
			end = dp.RunCPU(cal, 19)
		} else {
			end = dp.RunGPU(cal, v)
		}
		mbps := float64(dp.Size) / 1e6 / end.Seconds()
		t.Add(stats.Row{Label: v.Label, Value: mbps})
	}
	return t
}

// RunCPU models the CPU-only SPar Dedup: fragment (serial) → replicated
// hash+dedup+compress (19 replicas on 17 core-equivalents) → ordered write.
func (dp *DedupPrep) RunCPU(cal Calibration, workers int) des.Time {
	sim := des.New()
	cores := des.NewResource(sim, "cores", cal.EffectiveCores)
	in := des.NewQueue[*dedupBatch](sim, "batches", 512)
	out := des.NewQueue[*dedupBatch](sim, "done", 512)

	sim.Spawn("fragment", func(p *des.Proc) {
		for _, b := range dp.Batches {
			p.Wait(des.Duration(float64(len(b.data)) * cal.RabinNsPerByte))
			in.Put(p, b)
		}
		in.Close()
	})
	for w := 0; w < workers; w++ {
		sim.Spawn(fmt.Sprintf("worker%d", w), func(p *des.Proc) {
			for {
				b, ok := in.Get(p)
				if !ok {
					return
				}
				work := float64(len(b.data))*cal.SHA1NsPerByte +
					float64(b.blocks)*cal.DupCheckNsPerBlock +
					float64(b.uniqueBytes)*cal.LZSSCPUNsPerByte
				cores.Use(p, 1, des.Duration(work)+cal.overhead(SPar))
				out.Put(p, b)
			}
		})
	}
	sim.Spawn("writer", func(p *des.Proc) {
		for range dp.Batches {
			b, ok := out.Get(p)
			if !ok {
				return
			}
			p.Wait(des.Duration(float64(b.writtenBytes) * cal.WriteNsPerByte))
		}
	})
	end, err := sim.Run()
	if err != nil {
		panic(err)
	}
	return end
}

// gpuBatchState carries a batch through the 5-stage GPU pipeline (Fig. 3),
// together with its device residency.
type gpuBatchState struct {
	b     *dedupBatch
	q     *gq
	dev   int
	dData *dbuf // batch bytes on device (reused by stage 4)
	dSp   *dbuf
	wait  func(*des.Proc)
}

// RunGPU models the 5-stage GPU Dedup of §IV-B: (1) fragment on CPU,
// (2) SHA-1 on GPU (one replica per device, `Spaces` streams each),
// (3) duplicate check on CPU, (4) LZSS FindMatch on GPU reusing the
// device-resident batch, (5) ordered encode+write on CPU.
//
// Dedup's host buffers are realloc-managed and therefore pageable for both
// APIs (§V-B). Under CUDA, "asynchronous" copies on pageable memory block
// the issuing stage and exclude kernel overlap, so extra memory spaces buy
// nothing; under OpenCL the runtime stages them (slower but still
// asynchronous), so the 2×-memory-space optimization pays off.
func (dp *DedupPrep) RunGPU(cal Calibration, v DedupVariant) des.Time {
	sim := des.New()
	// The Fig. 5 harness runs uninstrumented; GPU Dedup telemetry lives on
	// the real pipeline in internal/dedup (cmd/dedup -metrics-addr).
	devs := newDevices(sim, v.GPUs, nil)
	a := newAPICtx(v.API, sim, devs)
	// Dedup's host buffers are realloc-managed and therefore pageable for
	// both APIs (§V-B); what differs is that CUDA's MemcpyAsync degrades to
	// synchronous on them while OpenCL stays asynchronous.
	hostBuf := func(n int64) *gpu.HostBuf { return gpu.NewHostBuf(n) }

	in := des.NewQueue[*dedupBatch](sim, "batches", 8)
	hashed := des.NewQueue[*gpuBatchState](sim, "hashed", 8)
	checked := des.NewQueue[*gpuBatchState](sim, "checked", 8)
	compressed := des.NewQueue[*gpuBatchState](sim, "compressed", 8)

	// Stage 1: fragmentation on CPU.
	sim.Spawn("fragment", func(p *des.Proc) {
		for _, b := range dp.Batches {
			p.Wait(des.Duration(float64(len(b.data)) * cal.RabinNsPerByte))
			in.Put(p, b)
		}
		in.Close()
	})

	// Stage 2: SHA-1 on GPU, one worker per device with `Spaces` streams.
	var s2done int
	for g := 0; g < v.GPUs; g++ {
		g := g
		sim.Spawn(fmt.Sprintf("sha1-gpu%d", g), func(p *des.Proc) {
			qs := make([]*gq, v.Spaces)
			for s := range qs {
				qs[s] = a.queue(p, g)
			}
			item := 0
			for {
				b, ok := in.Get(p)
				if !ok {
					break
				}
				q := qs[item%v.Spaces]
				item++
				st := &gpuBatchState{b: b, q: q, dev: g}
				st.dData = a.malloc(p, g, int64(len(b.data)))
				st.dSp = a.malloc(p, g, int64(len(b.spBytes)))
				dOut := a.malloc(p, g, int64(b.blocks*sha1x.Size))
				hIn := hostBuf(int64(len(b.data)))
				copy(hIn.Data, b.data)
				hSp := hostBuf(int64(len(b.spBytes)))
				copy(hSp.Data, b.spBytes)
				hHash := hostBuf(int64(b.blocks * sha1x.Size))
				q.copyH2D(p, st.dData, hIn, int64(len(b.data)))
				q.copyH2D(p, st.dSp, hSp, int64(len(b.spBytes)))
				q.launch(p, sha1x.Kernel, gpu.Grid1D(b.blocks, 128),
					st.dData.raw, st.dSp.raw, b.blocks, len(b.data), dOut.raw)
				q.copyD2H(p, hHash, dOut, int64(b.blocks*sha1x.Size))
				st.wait = q.record(p)
				hashed.Put(p, st)
			}
			s2done++
			if s2done == v.GPUs {
				hashed.Close()
			}
		})
	}

	// Stage 3: duplicate check on CPU (serial).
	sim.Spawn("dupcheck", func(p *des.Proc) {
		for {
			st, ok := hashed.Get(p)
			if !ok {
				checked.Close()
				return
			}
			st.wait(p) // hashes must be on the host
			p.Wait(des.Duration(float64(st.b.blocks) * cal.DupCheckNsPerBlock))
			checked.Put(p, st)
		}
	})

	// Stage 4: LZSS FindMatch on GPU, reusing the device-resident batch.
	sim.Spawn("compress", func(p *des.Proc) {
		spec := lzss.FastKernel()
		// The no-batch launches' input, one block at a time: each launch is
		// waited on before the next block is filled.
		var block lzss.Matches
		blockStarts := []int32{0}
		for {
			st, ok := checked.Get(p)
			if !ok {
				compressed.Close()
				return
			}
			b := st.b
			n := len(b.data)
			if v.Batched {
				dMl := a.malloc(p, st.dev, int64(n*4))
				dMo := a.malloc(p, st.dev, int64(n*4))
				hMl := hostBuf(int64(n * 4))
				hMo := hostBuf(int64(n * 4))
				st.q.launch(p, spec, gpu.Grid1D(n, 128),
					st.dData.raw, n, st.dSp.raw, b.blocks, dMl.raw, dMo.raw, &b.matches)
				st.q.copyD2H(p, hMl, dMl, int64(n*4))
				st.q.copyD2H(p, hMo, dMo, int64(n*4))
			} else {
				// The pre-optimization version: one kernel (and one pair
				// of transfers) per block, reading only the first entry,
				// 0, of the batch's startPos slab.
				for k := 0; k < b.blocks; k++ {
					lo := int(b.startPos[k])
					hi := n
					if k+1 < b.blocks {
						hi = int(b.startPos[k+1])
					}
					bl := hi - lo
					dMl := a.malloc(p, st.dev, int64(bl*4))
					dMo := a.malloc(p, st.dev, int64(bl*4))
					hMl := hostBuf(int64(bl * 4))
					hMo := hostBuf(int64(bl * 4))
					block.Fill(1, b.data[lo:hi], blockStarts, devs[st.dev].Spec.WarpSize, nil)
					st.q.launch(p, spec, gpu.Grid1D(bl, 128),
						st.dData.raw, bl, st.dSp.raw, 1, dMl.raw, dMo.raw, &block)
					st.q.copyD2H(p, hMl, dMl, int64(bl*4))
					st.q.copyD2H(p, hMo, dMo, int64(bl*4))
					st.wait = st.q.record(p)
					st.wait(p)
					dMl.raw.Free()
					dMo.raw.Free()
				}
			}
			st.wait = st.q.record(p)
			compressed.Put(p, st)
		}
	})

	// Stage 5: ordered encode + write on CPU.
	sim.Spawn("writer", func(p *des.Proc) {
		for {
			st, ok := compressed.Get(p)
			if !ok {
				return
			}
			st.wait(p) // match arrays must be on the host
			b := st.b
			p.Wait(des.Duration(float64(b.uniqueBytes)*cal.EncodeNsPerByte +
				float64(b.writtenBytes)*cal.WriteNsPerByte))
			st.dData.raw.Free()
			st.dSp.raw.Free()
		}
	})

	end, err := sim.Run()
	if err != nil {
		panic(err)
	}
	return end
}
