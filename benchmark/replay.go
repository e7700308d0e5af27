package main

import (
	"bytes"
	"fmt"

	"streamgpu/internal/dedup"
	"streamgpu/internal/lzss"
	"streamgpu/internal/rabin"
	"streamgpu/internal/server"
	"streamgpu/internal/server/wire"
)

// Span names of the replay: one per public call of the served lifecycle.
// The per-layer table is computed from the spans by these names.
const (
	spReplay     = "replay.request"
	spEncodeReq  = "wire.Append(request)"
	spDecodeReq  = "wire.Decode(request)"
	spEncodeResp = "wire.Append(response)"
	spDecodeResp = "wire.Decode(response)"
	spRabin      = "dedup.NewStreamBatch"
	spHash       = "Batch.HashBlocks"
	spMark       = "Batch.MarkFirsts"
	spLZSS       = "Batch.CompressFirsts(lanes=1)"
	spLZSSLanes  = "Batch.CompressFirsts(lanes=default)"
	spWrite      = "Batch.WriteBlocks+Writer.Flush"
	spRestore    = "dedup.Restore"
	spGPU        = "Processor.Process(gpu)"
	spComputeRow = "mandel.ComputeRow"
	spParse      = "server.ParseMandelReq"
)

// replayN is how many requests of connection 0's schedule the replay walks,
// sized to take a second or two on the recorded baseline.
func replayN(sp spec) int {
	switch {
	case sp.gpu:
		return 8
	case sp.svc == svcMandel:
		return 256
	case sp.open:
		return 512
	case sp.dupEvery > 0:
		return 160
	default:
		return 24
	}
}

// replayCounts is what the replay counted where the work happens.
type replayCounts struct {
	requests   int
	payload    int64 // request payload bytes
	framed     int64 // bytes through wire.Append (and wire.Decode)
	blocks     int
	firsts     int
	firstBytes int64
	restored   int64
	rows       int
	fallbacks  int // GPU batches degraded or rerouted to the CPU
}

// call times fn as a child span of parent.
func call(tr *tracer, name string, parent int, req int64, fn func()) {
	id := tr.begin(name, parent, req)
	fn()
	tr.end(id)
}

// replayDedup walks the first n requests of connection 0 through the served
// dedup lifecycle on this goroutine, one span per public call: frame the
// request, decode it, cut it, hash it, look it up, compress it, write it,
// frame the response, and at the end restore the archive and compare. Each
// request is its own batch, which is what the server makes of 1 MiB
// requests and, below saturation, of small ones behind a 2 ms linger.
func replayDedup(g *generator, n int, gpu bool, tr *tracer) (replayCounts, error) {
	reqs := g.reqs[0][:min(n, len(g.reqs[0]))]
	var (
		rc      = replayCounts{requests: len(reqs)}
		scratch = make([]byte, g.scratchSize())
		store   = dedup.NewStore()
		chunker = rabin.NewChunker()
		matcher = lzss.NewMatcher()
		out     bytes.Buffer
		dw      = dedup.NewWriter(&out)
		archive []byte
		reqBuf  []byte
		respBuf []byte
		err     error

		// The GPU path replays each batch a second time through a
		// Processor, against its own store so both see the same sightings.
		gpuProc    = dedup.NewProcessor(dedup.GPUOptions{}, true)
		gpuStore   = dedup.NewStore()
		gpuChunker = rabin.NewChunker()
	)
	for i, r := range reqs {
		req := int64(i)
		p := g.payload(r, scratch)
		rc.payload += int64(len(p))
		root := tr.begin(spReplay, 0, req)

		call(tr, spEncodeReq, root, req, func() {
			reqBuf = wire.Append(reqBuf[:0], wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: uint64(i), Payload: p})
		})
		var f wire.Frame
		call(tr, spDecodeReq, root, req, func() { f, _, err = wire.Decode(reqBuf) })
		if err != nil {
			return rc, fmt.Errorf("replay decode: %w", err)
		}
		rc.framed += int64(len(reqBuf))

		var b *dedup.Batch
		call(tr, spRabin, root, req, func() { b = dedup.NewStreamBatch(i, f.Payload, chunker) })
		call(tr, spHash, root, req, b.HashBlocks)
		call(tr, spMark, root, req, func() { b.MarkFirsts(store) })
		call(tr, spLZSS, root, req, func() { b.CompressFirsts(matcher, 1) })
		// Same batch, same verdicts, default lanes: only for the speed-up
		// row, never part of the stage sum.
		call(tr, spLZSSLanes, root, req, func() { b.CompressFirsts(matcher, lzss.DefaultLanes()) })
		rc.blocks += b.NBlocks()
		for k := range b.Comp {
			if b.Comp[k] != nil {
				lo, hi := b.Block(k)
				rc.firsts++
				rc.firstBytes += int64(hi - lo)
			}
		}
		call(tr, spWrite, root, req, func() {
			if err = b.WriteBlocks(dw); err == nil {
				err = dw.Flush()
			}
		})
		if err != nil {
			return rc, fmt.Errorf("replay write: %w", err)
		}
		b.Release()

		call(tr, spEncodeResp, root, req, func() {
			respBuf = wire.Append(respBuf[:0], wire.Frame{Type: wire.TResult, Svc: wire.SvcDedup, Tenant: 1, Seq: uint64(i), Payload: out.Bytes()})
		})
		call(tr, spDecodeResp, root, req, func() { f, _, err = wire.Decode(respBuf) })
		if err != nil {
			return rc, fmt.Errorf("replay decode: %w", err)
		}
		rc.framed += int64(len(respBuf))
		archive = append(archive, f.Payload...)
		out.Reset()

		if gpu {
			gb := dedup.NewStreamBatch(i, p, gpuChunker)
			call(tr, spGPU, root, req, func() { gpuProc.Process(gb, gpuStore) })
			gb.Release()
		}
		tr.end(root)
	}
	rep := gpuProc.Report()
	rc.fallbacks = rep.CPUHash + rep.CPUCompress + rep.Rerouted

	cw := newCompareWriter(g, reqs)
	call(tr, spRestore, 0, -1, func() { err = dedup.Restore(bytes.NewReader(archive), cw) })
	if err != nil || cw.verified() != len(reqs) {
		return rc, fmt.Errorf("replayed archive does not restore to the replayed requests (%d of %d): %v", cw.verified(), len(reqs), err)
	}
	rc.restored = rc.payload
	return rc, nil
}

// replayMandel walks n row-range requests through the mandel lifecycle.
func replayMandel(g *generator, n int, tr *tracer) (replayCounts, error) {
	reqs := g.reqs[0][:min(n, len(g.reqs[0]))]
	rc := replayCounts{requests: len(reqs)}
	scratch := make([]byte, g.scratchSize())
	pixels := make([]byte, mandelRows*mandelDim)
	var reqBuf, respBuf []byte
	var err error
	for i, r := range reqs {
		req := int64(i)
		p := g.payload(r, scratch)
		rc.payload += int64(len(pixels))
		root := tr.begin(spReplay, 0, req)
		call(tr, spEncodeReq, root, req, func() {
			reqBuf = wire.Append(reqBuf[:0], wire.Frame{Type: wire.TData, Svc: wire.SvcMandel, Tenant: 1, Seq: uint64(i), Payload: p})
		})
		var f wire.Frame
		call(tr, spDecodeReq, root, req, func() { f, _, err = wire.Decode(reqBuf) })
		if err != nil {
			return rc, fmt.Errorf("replay decode: %w", err)
		}
		var mr server.MandelReq
		call(tr, spParse, root, req, func() { mr, err = server.ParseMandelReq(f.Payload) })
		if err != nil {
			return rc, fmt.Errorf("replay parse: %w", err)
		}
		mp := mandelParams()
		for row := 0; row < int(mr.NRows); row++ {
			call(tr, spComputeRow, root, req, func() {
				mp.ComputeRow(int(mr.Row0)+row, pixels[row*mandelDim:(row+1)*mandelDim])
			})
		}
		rc.rows += int(mr.NRows)
		call(tr, spEncodeResp, root, req, func() {
			respBuf = wire.Append(respBuf[:0], wire.Frame{Type: wire.TResult, Svc: wire.SvcMandel, Tenant: 1, Seq: uint64(i), Payload: pixels})
		})
		call(tr, spDecodeResp, root, req, func() { _, _, err = wire.Decode(respBuf) })
		if err != nil {
			return rc, fmt.Errorf("replay decode: %w", err)
		}
		rc.framed += int64(len(reqBuf) + len(respBuf))
		tr.end(root)
	}
	return rc, nil
}
