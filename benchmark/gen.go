package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"sort"
	"time"

	"streamgpu/internal/server"
	"streamgpu/internal/workload"
)

// request is one generated request. For dedup it names a corpus region and
// the salt of the pass it belongs to; for mandel a first row. Payload bytes
// are regenerated from it on demand, so the harness never holds more than
// the corpus and one scratch buffer per connection.
type request struct {
	off, size int
	salt      byte
	row0      uint32
	// due is the open-loop send time, as an offset from the window start.
	due time.Duration
}

// generator owns the corpus and one schedule per connection; the first
// warmup requests of each schedule are the uncounted warm-up.
type generator struct {
	sp     spec
	corpus []byte
	reqs   [conns][]request
}

// generate builds the inputs of one run from seed alone: the same seed gives
// the same bytes, sizes, duplicates, arrival times and rows.
func generate(sp spec, seed int64, timed int) (*generator, error) {
	g := &generator{sp: sp}
	rng := rand.New(rand.NewSource(seed))
	n := warmup + timed
	if sp.svc == svcDedup {
		var err error
		if g.corpus, err = genCorpus(sp.corpus, seed, conns*n*sp.maxSize); err != nil {
			return nil, err
		}
	}
	for c := range g.reqs {
		switch sp.svc {
		case svcMandel:
			g.reqs[c] = mandelSchedule(rng, n)
		default:
			half := len(g.corpus) / conns
			g.reqs[c] = dedupSchedule(rng, sp, n, c*half, half)
		}
		if sp.open {
			arrivals(rng, g.reqs[c][warmup:], sp.perSec)
		}
	}
	return g, nil
}

// genCorpus builds an off-heap corpus of need bytes, at most corpusBytes, in
// pieces of 4 MiB. The pieces themselves are the same for every seed; the
// seed only orders them, so two seeds send the same statistics in a
// different order. Both alternatives were tried. Pieces regenerated per seed
// moved cpu_s_per_gb by 12% and compress_ratio by 3% between seeds, because
// the generator mixes text and binary at random; a per-seed salt over fixed
// pieces moved the Rabin block count, and with it mallocs_per_mb, by up to
// 20%. Either is more than the regressions the bounds are meant to catch.
// (Pieces also keep generation garbage small: workload.Generate grows its
// buffer past the size asked for.)
func genCorpus(kind workload.Kind, seed int64, need int) ([]byte, error) {
	const piece = 4 << 20
	corpus, err := offHeap(min(corpusBytes, need))
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(seed)).Perm((len(corpus) + piece - 1) / piece)
	for i, p := range order {
		dst := corpus[i*piece : min((i+1)*piece, len(corpus))]
		copy(dst, workload.Generate(workload.Spec{Kind: kind, Size: len(dst), Seed: int64(p) + 1}))
	}
	return corpus, nil
}

// xorSalt writes src XOR salt into dst: how a later pass over the corpus
// differs from an earlier one. A constant XOR keeps every LZSS match where it
// was and changes every block hash.
func xorSalt(dst, src []byte, salt byte) {
	s := uint64(salt) * 0x0101010101010101
	n := len(src) &^ 7
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(src[i:])^s)
	}
	for i := n; i < len(src); i++ {
		dst[i] = src[i] ^ salt
	}
}

// dedupSchedule walks one connection's share of the corpus [base,
// base+span) in request-sized steps. A walk that reaches the end starts
// over with the next salt, so no pass repeats another. With sp.dupEvery
// set, each stratum of that many requests holds exactly one fresh request
// at a seeded position (the very first request is always fresh) and the
// rest repeat an earlier fresh request chosen uniformly; the share is exact
// so that compress_ratio and CPU cost do not wander with the seed.
func dedupSchedule(rng *rand.Rand, sp spec, n, base, span int) []request {
	reqs := make([]request, 0, n)
	var fresh []int
	cursor, salt := 0, byte(0)
	freshAt := 0
	for i := 0; i < n; i++ {
		if sp.dupEvery > 0 {
			if i%sp.dupEvery == 0 && i > 0 {
				freshAt = i + rng.Intn(sp.dupEvery)
			}
			if i != freshAt {
				reqs = append(reqs, reqs[fresh[rng.Intn(len(fresh))]])
				continue
			}
		}
		size := sp.minSize + rng.Intn(sp.maxSize-sp.minSize+1)
		if cursor+size > span {
			cursor = 0
			salt++
		}
		reqs = append(reqs, request{off: base + cursor, size: size, salt: salt})
		fresh = append(fresh, i)
		cursor += size
	}
	return reqs
}

func mandelSchedule(rng *rand.Rand, n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{row0: uint32(rng.Intn(mandelDim - mandelRows + 1))}
	}
	return reqs
}

// mandelReqBytes is the encoded size of a row-range request.
const mandelReqBytes = 16

// arrivals stamps reqs with n send times uniform over n/rate seconds, in
// order: a Poisson process conditioned on its count, so inter-arrivals are
// exponential-like while every seed offers the same load over the same span.
func arrivals(rng *rand.Rand, reqs []request, rate float64) {
	span := float64(len(reqs)) / rate
	due := make([]float64, len(reqs))
	for i := range due {
		due[i] = rng.Float64() * span
	}
	sort.Float64s(due)
	for i := range reqs {
		reqs[i].due = time.Duration(due[i] * float64(time.Second))
	}
}

// payload returns r's request body. scratch must hold the largest request;
// the result aliases either the corpus or scratch and is valid until the
// next call with the same scratch.
func (g *generator) payload(r request, scratch []byte) []byte {
	if g.sp.svc == svcMandel {
		return server.AppendMandelReq(scratch[:0], server.MandelReq{
			Dim: mandelDim, Niter: mandelNiter, Row0: r.row0, NRows: mandelRows,
		})
	}
	src := g.corpus[r.off : r.off+r.size]
	if r.salt == 0 {
		return src
	}
	dst := scratch[:r.size]
	xorSalt(dst, src, r.salt)
	return dst
}

// scratchSize is the buffer payload needs for this generator's requests.
func (g *generator) scratchSize() int {
	if g.sp.svc == svcMandel {
		return mandelReqBytes
	}
	return g.sp.maxSize
}

var errMismatch = errors.New("restored bytes differ from the bytes sent")

// compareWriter is the sink dedup.Restore writes into after the window: it
// regenerates the expected stream request by request from the schedule and
// compares, so verification never holds the expected bytes.
type compareWriter struct {
	g       *generator
	reqs    []request
	scratch []byte
	next    int    // index of the next request to regenerate
	cur     []byte // unmatched rest of request next-1
}

func newCompareWriter(g *generator, reqs []request) *compareWriter {
	return &compareWriter{g: g, reqs: reqs, scratch: make([]byte, g.scratchSize())}
}

func (w *compareWriter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if len(w.cur) == 0 {
			if w.next == len(w.reqs) {
				return 0, errMismatch
			}
			w.cur = w.g.payload(w.reqs[w.next], w.scratch)
			w.next++
		}
		k := len(p)
		if k > len(w.cur) {
			k = len(w.cur)
		}
		if !bytes.Equal(p[:k], w.cur[:k]) {
			return 0, errMismatch
		}
		p, w.cur = p[k:], w.cur[k:]
	}
	return n, nil
}

// verified reports how many leading requests were restored whole and equal.
func (w *compareWriter) verified() int {
	if len(w.cur) > 0 {
		return w.next - 1
	}
	return w.next
}
