// Package loadgen is a closed-loop load generator for the streaming service
// front-end (internal/server, cmd/streamd): N concurrent clients each keep
// exactly one request outstanding, drawing payload sizes from a seeded
// distribution, and the run produces a report of admission verdict counts,
// percentile latencies, per-node shares (cluster runs), and end-to-end
// restore verification.
//
// Closed-loop matters here: an open-loop generator against a server with
// admission control measures mostly its own queue, while a closed loop
// measures the server's actual service capability and lets rejection rates
// be interpreted (each client's next request is only offered after the
// previous verdict).
//
// Against a cluster (Addrs lists several nodes) each client additionally
// speaks the routing protocol: a TRedirect verdict makes it re-dial the
// owning node under the same capped backoff as a reject retry, and a dead
// connection makes it fail over to the next node in the list and re-offer
// the in-flight request. Dedup verification then works per connection:
// every connection is its own server session with its own archive stream,
// and the archive deltas acked on a connection restore to exactly the
// payloads acked on it — so each segment is restored and compared
// independently, and a mid-stream node kill costs no verifiable bytes.
package loadgen

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"streamgpu/internal/dedup"
	"streamgpu/internal/mandel"
	"streamgpu/internal/server"
	"streamgpu/internal/server/wire"
	"streamgpu/internal/stats"
	"streamgpu/internal/workload"
)

// Config shapes a load-generation run.
type Config struct {
	// Addr is the streamd address to dial (single-node form).
	Addr string
	// Addrs lists the cluster's nodes; when set it wins over Addr. Clients
	// spread their initial dials across the list round-robin and fail over
	// along it when a connection dies.
	Addrs []string
	// Service selects the target pipeline (default wire.SvcDedup).
	Service wire.Svc
	// Clients is the closed-loop concurrency (default 8).
	Clients int
	// Requests is the per-client request count (default 32).
	Requests int
	// Tenants spreads clients across this many tenant IDs (default 4).
	Tenants int
	// MinBytes/MaxBytes bound the uniform payload-size distribution for the
	// dedup service (defaults 1 KiB / 64 KiB).
	MinBytes, MaxBytes int
	// Dim/Niter/RowsPerReq shape mandel requests (defaults 256/256/16).
	Dim, Niter, RowsPerReq int
	// FirstTenant offsets the tenant IDs clients spread across — scenario
	// runs (a hog fleet and a small fleet against one server) use disjoint
	// ranges so per-tenant verdicts can be attributed.
	FirstTenant uint32
	// Seed makes the run reproducible (payload sizes and contents).
	Seed int64
	// Deadline, when positive, rides every request as its wire deadline: the
	// server fast-fails the request when its estimated queue wait exceeds
	// it. Rejections for this reason count as deadline misses, not retries.
	Deadline time.Duration
	// Retries is how many times a rejected request is re-offered before it
	// counts as rejected. Each retry honors the server's retry-after hint
	// under capped exponential backoff with jitter. 0 disables retries.
	Retries int
	// BackoffCap bounds one retry's sleep, hint included (default 1s).
	BackoffCap time.Duration
	// Verify restores every session's archive (or recomputes every row
	// range) and counts mismatches.
	Verify bool
	// DialTimeout bounds each client's dial (default 5s).
	DialTimeout time.Duration
}

func (c Config) clients() int {
	if c.Clients <= 0 {
		return 8
	}
	return c.Clients
}

func (c Config) requests() int {
	if c.Requests <= 0 {
		return 32
	}
	return c.Requests
}

func (c Config) tenants() int {
	if c.Tenants <= 0 {
		return 4
	}
	return c.Tenants
}

func (c Config) addrList() []string {
	if len(c.Addrs) > 0 {
		return c.Addrs
	}
	if c.Addr != "" {
		return []string{c.Addr}
	}
	return nil
}

func (c Config) sizeBounds() (int, int) {
	lo, hi := c.MinBytes, c.MaxBytes
	if lo <= 0 {
		lo = 1 << 10
	}
	if hi < lo {
		hi = 64 << 10
		if hi < lo {
			hi = lo
		}
	}
	return lo, hi
}

func (c Config) service() wire.Svc {
	if c.Service == 0 {
		return wire.SvcDedup
	}
	return c.Service
}

func (c Config) mandelShape() (dim, niter, rows int) {
	dim, niter, rows = c.Dim, c.Niter, c.RowsPerReq
	if dim <= 0 {
		dim = 256
	}
	if niter <= 0 {
		niter = 256
	}
	if rows <= 0 {
		rows = 16
	}
	if rows > dim {
		rows = dim
	}
	return dim, niter, rows
}

func (c Config) dialTimeout() time.Duration {
	if c.DialTimeout <= 0 {
		return 5 * time.Second
	}
	return c.DialTimeout
}

func (c Config) backoffCap() time.Duration {
	if c.BackoffCap <= 0 {
		return time.Second
	}
	return c.BackoffCap
}

// Report is the run summary.
type Report struct {
	Service  string `json:"service"`
	Clients  int    `json:"clients"`
	Requests int    `json:"requests_per_client"`
	Accepted int64  `json:"accepted"`
	Rejected int64  `json:"rejected"`
	// Retries counts re-offers of rejected requests (each honoring the
	// server's retry-after hint); Throttled counts tenant-throttled verdicts
	// observed, retried or not; DeadlineMisses counts requests fast-failed
	// for their deadline (never retried — a late answer is still late).
	Retries        int64 `json:"retries"`
	Throttled      int64 `json:"throttled"`
	DeadlineMisses int64 `json:"deadline_misses"`
	// Redirects counts TRedirect verdicts followed (cluster runs); Failovers
	// counts dead connections replaced mid-stream (node kills, drains).
	Redirects  int64   `json:"redirects"`
	Failovers  int64   `json:"failovers"`
	SentBytes  int64   `json:"sent_bytes"`
	RecvBytes  int64   `json:"recv_bytes"`
	Seconds    float64 `json:"seconds"`
	LatencyP50 float64 `json:"latency_p50_seconds"`
	LatencyP90 float64 `json:"latency_p90_seconds"`
	LatencyP99 float64 `json:"latency_p99_seconds"`
	// Nodes breaks accepted traffic down by the node that served it
	// (cluster runs only).
	Nodes []NodeReport `json:"nodes,omitempty"`
	// RestoreFailures counts sessions whose restored archive (dedup) or
	// recomputed rows (mandel) did not match what was sent. Zero is the
	// soak-test invariant.
	RestoreFailures int      `json:"restore_failures"`
	Errors          []string `json:"errors,omitempty"`
}

// NodeReport is one node's share of a cluster run, as clients observed it.
type NodeReport struct {
	Addr       string  `json:"addr"`
	Accepted   int64   `json:"accepted"`
	SentBytes  int64   `json:"sent_bytes"`
	Throughput float64 `json:"throughput_mb_s"`
	// Share is this node's fraction of all accepted requests — the
	// client-visible balance of the ring placement.
	Share float64 `json:"share"`
}

// nodeCounts tallies one client's accepted traffic per serving node.
type nodeCounts struct {
	accepted int64
	sent     int64
}

// clientResult is one client's tally.
type clientResult struct {
	accepted, rejected int64
	retries, throttled int64
	deadlineMisses     int64
	redirects          int64
	failovers          int64
	sent, recv         int64
	lats               []float64
	nodes              map[string]*nodeCounts
	restoreFailed      bool
	err                error
}

// Run executes the configured load against a live server (or cluster) and
// aggregates the report. A client error (dial failure, protocol error)
// aborts that client but the run still reports the others; the first error
// is surfaced in Report.Errors.
func Run(cfg Config) (Report, error) {
	n := cfg.clients()
	results := make([]clientResult, n)
	// Shared compressible corpus: clients slice random windows out of it,
	// which gives the dedup store real duplicate hits across requests.
	corpus := workload.Generate(workload.Spec{Kind: workload.Silesia, Size: 4 << 20, Seed: cfg.Seed + 7})

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			results[id] = runClient(cfg, id, corpus)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	rep := Report{
		Service:  cfg.service().String(),
		Clients:  n,
		Requests: cfg.requests(),
		Seconds:  elapsed,
	}
	var lats []float64
	nodeTotals := make(map[string]*nodeCounts)
	for i := range results {
		r := &results[i]
		rep.Accepted += r.accepted
		rep.Rejected += r.rejected
		rep.Retries += r.retries
		rep.Throttled += r.throttled
		rep.DeadlineMisses += r.deadlineMisses
		rep.Redirects += r.redirects
		rep.Failovers += r.failovers
		rep.SentBytes += r.sent
		rep.RecvBytes += r.recv
		lats = append(lats, r.lats...)
		for addr, nc := range r.nodes {
			t := nodeTotals[addr]
			if t == nil {
				t = &nodeCounts{}
				nodeTotals[addr] = t
			}
			t.accepted += nc.accepted
			t.sent += nc.sent
		}
		if r.restoreFailed {
			rep.RestoreFailures++
		}
		if r.err != nil && len(rep.Errors) < 8 {
			rep.Errors = append(rep.Errors, fmt.Sprintf("client %d: %v", i, r.err))
		}
	}
	sort.Float64s(lats)
	if len(lats) > 0 {
		rep.LatencyP50 = stats.Percentile(lats, 50)
		rep.LatencyP90 = stats.Percentile(lats, 90)
		rep.LatencyP99 = stats.Percentile(lats, 99)
	}
	if cluster := cfg.addrList(); len(cluster) > 1 {
		// Nodes in the order of the configured list; nodes reached only via
		// redirect (not in the list) sort after.
		order := append([]string(nil), cluster...)
		inList := make(map[string]bool, len(order))
		for _, a := range order {
			inList[a] = true
		}
		var extra []string
		for addr := range nodeTotals {
			if !inList[addr] {
				extra = append(extra, addr)
			}
		}
		sort.Strings(extra)
		order = append(order, extra...)
		for _, addr := range order {
			t := nodeTotals[addr]
			if t == nil {
				t = &nodeCounts{}
			}
			nr := NodeReport{Addr: addr, Accepted: t.accepted, SentBytes: t.sent}
			if elapsed > 0 {
				nr.Throughput = float64(t.sent) / 1e6 / elapsed
			}
			if rep.Accepted > 0 {
				nr.Share = float64(t.accepted) / float64(rep.Accepted)
			}
			rep.Nodes = append(rep.Nodes, nr)
		}
	}
	var firstErr error
	for i := range results {
		if results[i].err != nil {
			firstErr = results[i].err
			break
		}
	}
	return rep, firstErr
}

// clientConn is one client's connection to the cluster: it dials, follows
// redirects, and fails over along the node list, so the request loops above
// it only see offer/endStream.
type clientConn struct {
	cfg   *Config
	rng   *rand.Rand
	res   *clientResult
	addrs []string
	next  int // round-robin cursor for the next (re)dial

	conn net.Conn
	fw   *wire.Writer
	fr   *wire.Reader
	addr string

	// onLoss runs whenever the current connection is abandoned (failover or
	// redirect) — the dedup client seals its archive segment there, because
	// a new connection is a new server session with a fresh archive stream.
	onLoss func()
}

// maxHops bounds connection replacements (redirects + failovers + failed
// dials) per request: generous enough to ride out a membership-convergence
// window, small enough that a dead cluster fails the run promptly.
func (cl *clientConn) maxHops() int { return 8*len(cl.addrs) + 8 }

func (cl *clientConn) dial(addr string) error {
	c, err := net.DialTimeout("tcp", addr, cl.cfg.dialTimeout())
	if err != nil {
		return err
	}
	cl.conn, cl.addr = c, addr
	cl.fw = wire.NewWriter(c)
	// Responses can carry a whole coalesced batch's archive delta, so the
	// client-side payload cap is generous.
	cl.fr = wire.NewReader(c, 8<<20)
	return nil
}

// redial dials the next node in the round-robin order.
func (cl *clientConn) redial() error {
	addr := cl.addrs[cl.next%len(cl.addrs)]
	cl.next++
	return cl.dial(addr)
}

// lose abandons the current connection (it is dead, or it redirected us).
func (cl *clientConn) lose() {
	if cl.conn != nil {
		cl.conn.Close()
		cl.conn = nil
	}
	if cl.onLoss != nil {
		cl.onLoss()
	}
}

func (cl *clientConn) close() {
	if cl.conn != nil {
		cl.conn.Close()
		cl.conn = nil
	}
}

// tally attributes one accepted request to the node that served it.
func (cl *clientConn) tally(payloadLen int) {
	nc := cl.res.nodes[cl.addr]
	if nc == nil {
		nc = &nodeCounts{}
		cl.res.nodes[cl.addr] = nc
	}
	nc.accepted++
	nc.sent += int64(payloadLen)
}

// runClient drives one closed-loop client.
func runClient(cfg Config, id int, corpus []byte) clientResult {
	res := clientResult{nodes: make(map[string]*nodeCounts)}
	addrs := cfg.addrList()
	if len(addrs) == 0 {
		res.err = errors.New("no server address configured")
		return res
	}
	rng := rand.New(rand.NewSource(cfg.Seed + int64(id)*1543))
	cl := &clientConn{cfg: &cfg, rng: rng, res: &res, addrs: addrs, next: id}
	defer cl.close()
	tenant := cfg.FirstTenant + uint32(id%cfg.tenants())

	switch cfg.service() {
	case wire.SvcMandel:
		runMandelClient(cfg, rng, tenant, cl, &res)
	default:
		runDedupClient(cfg, rng, tenant, cl, corpus, &res)
	}
	return res
}

// sendFrame writes and flushes one frame.
func sendFrame(fw *wire.Writer, f wire.Frame) error {
	if err := fw.Write(f); err != nil {
		return err
	}
	return fw.Flush()
}

// awaitVerdict reads the verdict frame for request seq: TResult, TReject, or
// TRedirect. A server TEnd (drain) or TError aborts.
func awaitVerdict(fr *wire.Reader, seq uint64) (wire.Frame, error) {
	for {
		f, err := fr.Next()
		if err != nil {
			return wire.Frame{}, fmt.Errorf("awaiting verdict for %d: %w", seq, err)
		}
		switch f.Type {
		case wire.TResult, wire.TReject, wire.TRedirect:
			if f.Seq != seq {
				return wire.Frame{}, fmt.Errorf("verdict for request %d while waiting for %d", f.Seq, seq)
			}
			return f, nil
		case wire.TError:
			return wire.Frame{}, fmt.Errorf("server error: %s", f.Payload)
		case wire.TEnd:
			return wire.Frame{}, fmt.Errorf("server ended stream while request %d outstanding", seq)
		default:
			return wire.Frame{}, fmt.Errorf("unexpected %s frame", f.Type)
		}
	}
}

// offer sends one request and awaits its verdict, handling the full retry
// surface: rejected requests are re-offered up to cfg.Retries times (each
// retry sleeps for the server's retry-after hint — or, when the hint is
// zero, an exponentially growing base — capped by cfg.BackoffCap, with up to
// 25% added jitter so a fleet of synchronized rejects does not retry as a
// thundering herd); a TRedirect re-dials the owning node under the same
// capped backoff; and a dead connection fails over to the next node in the
// list and re-offers. Deadline rejects are terminal: retrying cannot un-miss
// a latency budget. offer reports whether the request was ultimately
// accepted; the frame is the accepting TResult when it was.
func (cl *clientConn) offer(f wire.Frame, res *clientResult) (wire.Frame, bool, error) {
	const backoffBase = 2 * time.Millisecond
	cfg := cl.cfg
	f.Deadline = cfg.Deadline
	rejects, hops := 0, 0
	backoff := func(hint time.Duration, n int) {
		sleep := backoffBase << uint(n)
		if hint > sleep {
			sleep = hint
		}
		if limit := cfg.backoffCap(); sleep > limit {
			sleep = limit
		}
		sleep += time.Duration(cl.rng.Int63n(int64(sleep)/4 + 1))
		time.Sleep(sleep)
	}
	hop := func(hint time.Duration) error {
		hops++
		if hops > cl.maxHops() {
			return fmt.Errorf("request %d: no node served it after %d connection attempts", f.Seq, hops)
		}
		backoff(hint, hops)
		return nil
	}
	for {
		if cl.conn == nil {
			if err := cl.redial(); err != nil {
				if herr := hop(0); herr != nil {
					return wire.Frame{}, false, herr
				}
				continue
			}
		}
		if err := sendFrame(cl.fw, f); err != nil {
			cl.lose()
			res.failovers++
			if herr := hop(0); herr != nil {
				return wire.Frame{}, false, herr
			}
			continue
		}
		res.sent += int64(len(f.Payload))
		v, err := awaitVerdict(cl.fr, f.Seq)
		if err != nil {
			// The connection is unusable whether the node died or the stream
			// desynchronized; fail over either way.
			cl.lose()
			res.failovers++
			if herr := hop(0); herr != nil {
				return wire.Frame{}, false, herr
			}
			continue
		}
		switch v.Type {
		case wire.TResult:
			return v, true, nil
		case wire.TRedirect:
			res.redirects++
			hint, owner := wire.ParseRedirectInfo(v.Payload)
			cl.lose() // no session was established on the redirecting node
			if herr := hop(hint); herr != nil {
				return wire.Frame{}, false, herr
			}
			if owner != "" {
				// Best effort: a failed dial (owner just died) falls back to
				// the round-robin redial at the top of the loop.
				_ = cl.dial(owner)
			}
			continue
		default: // TReject
			reason, hint := wire.ParseRejectInfo(v.Payload)
			switch reason {
			case wire.ReasonDeadline:
				res.deadlineMisses++
				return v, false, nil
			case wire.ReasonThrottled:
				res.throttled++
			}
			if rejects >= cfg.Retries {
				res.rejected++
				return v, false, nil
			}
			rejects++
			res.retries++
			backoff(hint, rejects)
		}
	}
}

// runDedupClient streams random corpus windows and verifies the restored
// archive against exactly the accepted payloads. Each connection is its own
// server session with its own archive stream, so verification works in
// segments: a failover seals the current segment, and every segment must
// restore to the payloads acked on it.
func runDedupClient(cfg Config, rng *rand.Rand, tenant uint32, cl *clientConn, corpus []byte, res *clientResult) {
	lo, hi := cfg.sizeBounds()
	type segment struct{ archive, expected bytes.Buffer }
	seg := &segment{}
	var segments []*segment
	seal := func() {
		if seg.archive.Len() > 0 || seg.expected.Len() > 0 {
			segments = append(segments, seg)
			seg = &segment{}
		}
	}
	cl.onLoss = seal
	for i := 0; i < cfg.requests(); i++ {
		size := lo + rng.Intn(hi-lo+1)
		if size > len(corpus) {
			size = len(corpus)
		}
		off := rng.Intn(len(corpus) - size + 1)
		payload := corpus[off : off+size]
		seq := uint64(i)
		t0 := time.Now()
		v, ok, err := cl.offer(
			wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: tenant, Seq: seq, Payload: payload}, res)
		if err != nil {
			res.err = err
			break // already-sealed segments still verify below
		}
		if !ok {
			continue
		}
		res.accepted++
		res.lats = append(res.lats, time.Since(t0).Seconds())
		res.recv += int64(len(v.Payload))
		cl.tally(len(payload))
		seg.archive.Write(v.Payload)
		if cfg.Verify {
			seg.expected.Write(payload)
		}
	}
	if res.err == nil && cl.conn != nil {
		tail, err := cl.endStream(res)
		if err != nil {
			if len(cl.addrs) > 1 {
				// The node died during the end handshake. Every request was
				// already acked, so the segment verifies without the tail.
				res.failovers++
			} else {
				res.err = err
			}
		} else {
			seg.archive.Write(tail)
		}
	}
	seal()
	if cfg.Verify {
		for _, s := range segments {
			var restored bytes.Buffer
			if err := dedup.Restore(bytes.NewReader(s.archive.Bytes()), &restored); err != nil {
				res.restoreFailed = true
				res.err = fmt.Errorf("restore: %w", err)
				return
			}
			if !bytes.Equal(restored.Bytes(), s.expected.Bytes()) {
				res.restoreFailed = true
				res.err = fmt.Errorf("restore mismatch: %d bytes restored, %d sent", restored.Len(), s.expected.Len())
				return
			}
		}
	}
}

// runMandelClient requests random row ranges and optionally recomputes them
// locally for verification.
func runMandelClient(cfg Config, rng *rand.Rand, tenant uint32, cl *clientConn, res *clientResult) {
	dim, niter, rows := cfg.mandelShape()
	p := mandel.Params{Dim: dim, Niter: niter, InitA: -2.0, InitB: -1.25, Range: 2.5}
	row := make([]byte, dim)
	for i := 0; i < cfg.requests(); i++ {
		nrows := 1 + rng.Intn(rows)
		row0 := rng.Intn(dim - nrows + 1)
		req := MandelReqPayload(uint32(dim), uint32(niter), uint32(row0), uint32(nrows))
		seq := uint64(i)
		t0 := time.Now()
		v, ok, err := cl.offer(
			wire.Frame{Type: wire.TData, Svc: wire.SvcMandel, Tenant: tenant, Seq: seq, Payload: req}, res)
		if err != nil {
			res.err = err
			return
		}
		if !ok {
			continue
		}
		res.accepted++
		res.lats = append(res.lats, time.Since(t0).Seconds())
		res.recv += int64(len(v.Payload))
		cl.tally(len(req))
		if len(v.Payload) != nrows*dim {
			res.restoreFailed = true
			res.err = fmt.Errorf("request %d: %d response bytes, want %d", seq, len(v.Payload), nrows*dim)
			return
		}
		if cfg.Verify {
			// The check recomputes each row on the scalar reference, Pixel,
			// not on ComputeRow's row kernel, which is what the server ran.
			for r := 0; r < nrows; r++ {
				for j := range row {
					row[j] = p.Color(p.Pixel(row0+r, j))
				}
				if !bytes.Equal(v.Payload[r*dim:(r+1)*dim], row) {
					res.restoreFailed = true
					res.err = fmt.Errorf("request %d: row %d mismatch", seq, row0+r)
					return
				}
			}
		}
	}
	if cl.conn == nil {
		return
	}
	if _, err := cl.endStream(res); err != nil && len(cl.addrs) == 1 {
		res.err = err
	}
}

// MandelReqPayload encodes a row-range request body.
func MandelReqPayload(dim, niter, row0, nrows uint32) []byte {
	return server.AppendMandelReq(nil, server.MandelReq{Dim: dim, Niter: niter, Row0: row0, NRows: nrows})
}

// endStream performs the TEnd handshake on the current connection,
// collecting any trailing result payloads and the TEnd tail (residual
// archive bytes).
func (cl *clientConn) endStream(res *clientResult) ([]byte, error) {
	if err := sendFrame(cl.fw, wire.Frame{Type: wire.TEnd}); err != nil {
		return nil, fmt.Errorf("send end: %w", err)
	}
	var tail bytes.Buffer
	for {
		f, err := cl.fr.Next()
		if err == io.EOF {
			return tail.Bytes(), nil
		}
		if err != nil {
			return nil, fmt.Errorf("awaiting end: %w", err)
		}
		switch f.Type {
		case wire.TEnd:
			tail.Write(f.Payload)
			res.recv += int64(len(f.Payload))
			return tail.Bytes(), nil
		case wire.TResult:
			tail.Write(f.Payload)
			res.recv += int64(len(f.Payload))
		case wire.TError:
			return nil, fmt.Errorf("server error at end: %s", f.Payload)
		}
	}
}
