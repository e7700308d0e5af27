package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"streamgpu/internal/dedup"
	"streamgpu/internal/rabin"
	"streamgpu/internal/server/qos"
	"streamgpu/internal/server/wire"
	"streamgpu/internal/telemetry"
)

// completion records one accepted request whose final byte lands in a
// particular batch: when that batch's archive records are written, the
// request is answered and its service time observed.
type completion struct {
	seq    uint64
	tenant uint32
	t0     time.Time
}

// job is one dedup batch: staged in its session until sealed, then flowing
// through the shared pipeline. Jobs are pooled, so item's Run and Drop
// closures are built once per job and done keeps its capacity.
type job struct {
	sess  *session
	batch *dedup.Batch // set when the job is sealed
	// data is the pooled payload buffer batch.Data aliases; the sink
	// returns it to the server's byte pool after the batch is written.
	data []byte
	// done lists the requests this batch completes, in arrival order.
	done []completion
	item qos.Item
}

// newJob builds a job whose scheduler item runs or drops that job.
func (s *Server) newJob() *job {
	j := &job{}
	j.item = qos.Item{
		Run: func() { s.emitDedup(j) },
		Drop: func() {
			// Forced drain: the pipeline is going away, recycle and give up
			// on the batch's requests (the client is being disconnected
			// anyway).
			for _, c := range j.done {
				s.releaseAdmitted(c.tenant)
			}
			// Enqueue calls Drop under sess.mu once the scheduler is
			// closed, so serving is left as is: finish seals what is
			// staged.
			sess := j.sess
			s.recycleJob(j)
			sess.jobDone()
		},
	}
	return j
}

// recycleJob returns a sealed job's batch, payload buffer and the job itself
// to their pools once the job has left the pipeline.
func (s *Server) recycleJob(j *job) {
	j.batch.Release()
	s.payloads.Release(j.data)
	j.sess, j.batch, j.data = nil, nil, nil
	j.done = j.done[:0]
	s.jobs.Release(j)
}

// mandelJob is one row-range request flowing through the Mandelbrot farm.
type mandelJob struct {
	sess   *session
	seq    uint64
	tenant uint32
	t0     time.Time
	req    MandelReq
	out    []byte // filled by the compute stage (pooled)
}

// session is one client connection: a read loop that stages request bytes
// into coalesced batches, plus the per-session archive state the ordered
// sink writes into.
type session struct {
	srv  *Server
	conn net.Conn

	wmu sync.Mutex // serializes response frames (sinks and read loop both write)
	fw  *wire.Writer

	// Staging state, guarded by mu. The read loop, the linger timer and the
	// sink (batchDone) all seal batches; sealing enqueues into the scheduler
	// *under mu* so batch sequence numbers enter its FIFO, and so the
	// (ordered) pipeline, in order. Enqueue never blocks.
	mu     sync.Mutex
	staged *job // the partial batch; nil when nothing is staged
	// serving counts the session's sealed batches the sink has not yet
	// written. While one is being served, a partial batch stays staged.
	serving  int
	batchSeq int
	chunker  *rabin.Chunker
	linger   *time.Timer

	// Archive state, touched only by the serial ordered sink (plus the read
	// loop's final flush, which runs strictly after the last job drains).
	// store is per-session by default; a cluster node injects one shared
	// content-addressed store through Config.Store.
	store dedup.BlockStore
	out   bytes.Buffer
	dw    *dedup.Writer

	// Outstanding-job accounting for drain, guarded by cmu.
	cmu         sync.Mutex
	outstanding int
	ended       bool
	drained     chan struct{}

	dead atomic.Bool
}

func newSession(s *Server, conn net.Conn) *session {
	store := s.cfg.Store
	if store == nil {
		store = dedup.NewStore()
	}
	sess := &session{
		srv:     s,
		conn:    conn,
		fw:      wire.NewWriter(conn),
		chunker: rabin.NewChunker(),
		store:   store,
		drained: make(chan struct{}),
	}
	sess.dw = dedup.NewWriter(&sess.out)
	return sess
}

// run is the session goroutine: decode frames until the client ends the
// stream, the connection drops, or the server drains.
func (sess *session) run() {
	defer sess.srv.sessWG.Done()
	defer sess.srv.dropSession(sess)
	defer sess.conn.Close()

	sess.srv.sessionGauge(+1)
	defer sess.srv.sessionGauge(-1)

	fr := wire.NewReader(sess.conn, sess.srv.cfg.maxPayload())
	clean := false
loop:
	for {
		// Idle-poll with a short deadline so the session notices server
		// drain: Peek consumes nothing, so an expiry here cannot strand a
		// half-read frame. Once bytes are flowing, the frame itself gets a
		// generous deadline.
		sess.conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		if err := fr.Peek(); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if sess.srv.drainingNow() {
					break loop
				}
				continue
			}
			if err != io.EOF {
				sess.fail(fmt.Errorf("read: %w", err))
			}
			break loop
		}
		sess.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		f, err := fr.Next()
		if err != nil {
			if err != io.EOF {
				sess.fail(fmt.Errorf("read: %w", err))
			}
			break loop
		}
		switch f.Type {
		case wire.TData:
			// Bytes of a later frame already in the reader's buffer mean
			// the client is still sending: its next request may join the
			// staged batch. (A frame longer than the buffer is read past
			// it, so this misses a successor still in the socket; the
			// serving rule in stageDedup coalesces those.)
			if !sess.handleData(f, fr.Buffered() > 0) {
				break loop
			}
		case wire.TFlush:
			sess.flushPartial(sealFlush)
		case wire.TEnd:
			clean = true
			break loop
		default:
			sess.fail(fmt.Errorf("unexpected %s frame from client", f.Type))
			break loop
		}
	}
	sess.finish(clean)
}

// handleData validates, admits and stages one request. It returns false on
// a fatal protocol error. arriving reports whether the reader's buffer
// already held bytes of a later frame when f was read.
//
// Admission is a four-stage machine:
//
//	tenant throttle → fair share → overload → deadline
//
// The per-tenant gate runs first so every arrival registers as a competitor
// even while it is being rejected — a hog that filled the shared window
// before a small tenant's first request must still see its fair share shrink
// when that tenant starts knocking. Overload then guards the shared window
// (every tenant sees it), and the deadline stage fast-fails a request whose
// estimated queue wait already exceeds the deadline it carries — doing the
// work would only produce an answer nobody is waiting for. Every rejection
// ships a reason and a retry-after hint in the TReject payload.
func (sess *session) handleData(f wire.Frame, arriving bool) bool {
	s := sess.srv
	if len(f.Payload) == 0 {
		sess.fail(errors.New("empty request payload"))
		return false
	}
	// cost is the request's size in bytes of work — payload bytes for
	// dedup, output pixels for mandel — so fairness cannot be cheated by
	// packing more work into fewer requests.
	cost := len(f.Payload)
	var mreq MandelReq
	switch f.Svc {
	case wire.SvcDedup:
	case wire.SvcMandel:
		var err error
		if mreq, err = ParseMandelReq(f.Payload); err != nil {
			sess.fail(err)
			return false
		}
		cost = int(mreq.Dim) * int(mreq.NRows)
	default:
		sess.fail(fmt.Errorf("unknown service %d", uint8(f.Svc)))
		return false
	}
	if m := s.cfg.Metrics; m != nil {
		m.Counter("server_request_bytes_total", tenantLabels(f.Svc, f.Tenant)).
			Add(int64(len(f.Payload)))
	}

	deadline := f.Deadline
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}

	total := s.inflight.Load()
	if v := s.adm.admit(f.Tenant, cost, total); !v.ok {
		sess.sendReject(f.Svc, f.Tenant, f.Seq, v.reason, v.retryAfter)
		return true
	}
	if total >= int64(s.cfg.maxInflight()) {
		s.adm.cancel(f.Tenant, cost)
		sess.sendReject(f.Svc, f.Tenant, f.Seq, wire.ReasonOverload,
			s.est.wait(f.Svc, total, s.cfg.workers()))
		return true
	}
	if deadline > 0 {
		if est := s.est.wait(f.Svc, total, s.cfg.workers()); est > deadline {
			s.adm.cancel(f.Tenant, cost)
			sess.sendReject(f.Svc, f.Tenant, f.Seq, wire.ReasonDeadline, est-deadline)
			return true
		}
	}
	s.inflight.Add(1)
	s.countVerdict(f.Svc, f.Tenant, "accepted", wire.ReasonNone)

	switch f.Svc {
	case wire.SvcDedup:
		sess.stageDedup(f, arriving)
	case wire.SvcMandel:
		sess.stageMandel(f, mreq, deadline)
	}
	return true
}

// stageMandel queues one row-range request into the scheduler. A
// deadline rides along as the item's expiry: a request still queued past it
// is settled with a late deadline reject instead of computed — the wasted
// work the deadline exists to avoid.
func (sess *session) stageMandel(f wire.Frame, mreq MandelReq, deadline time.Duration) {
	s := sess.srv
	mj := &mandelJob{sess: sess, seq: f.Seq, tenant: f.Tenant, t0: time.Now(), req: mreq}
	sess.addOutstanding()
	var expiry time.Time
	if deadline > 0 {
		expiry = mj.t0.Add(deadline)
	}
	s.mandelSched.Enqueue(0, qos.Item{
		Deadline: expiry,
		Run:      func() { s.emitMandel(mj) },
		Expire: func() {
			s.releaseAdmitted(mj.tenant)
			sess.sendReject(wire.SvcMandel, mj.tenant, mj.seq, wire.ReasonDeadline, 0)
			sess.jobDone()
		},
		Drop: func() {
			s.releaseAdmitted(mj.tenant)
			sess.jobDone()
		},
	})
}

// Seal triggers, recorded per batch for the coalescing metrics.
const (
	sealFull  = "full"
	sealIdle  = "idle"
	sealLing  = "linger"
	sealFlush = "flush"
	sealEnd   = "end"
)

// stageDedup appends one accepted request's bytes to the session's staging
// buffer, sealing every batch it fills. The request's completion is
// attached to the batch holding its final byte. If that batch stays partial
// it is sealed at once when the session is idle: no byte of a later frame
// is in hand and none of the session's batches is being served, so no
// later request could join it before this one is answered. Otherwise the
// completion waits in the staged job for the seal that ships it: the batch
// fills, the sink finishes the session's last served batch (batchDone),
// the client flushes or ends the stream, or the linger expires. While a
// batch is served, the requests arriving behind it coalesce into the next
// one, so batches grow with the load and shrink to one request when there
// is none.
func (sess *session) stageDedup(f wire.Frame, arriving bool) {
	s := sess.srv
	batchSize := s.cfg.batchSize()
	c := completion{seq: f.Seq, tenant: f.Tenant, t0: time.Now()}
	payload := f.Payload

	sess.mu.Lock()
	defer sess.mu.Unlock()
	for {
		if sess.staged == nil {
			j := s.jobs.Get()
			j.sess = sess
			j.data = s.payloads.Get(batchSize)[:0]
			sess.staged = j
		}
		j := sess.staged
		take := batchSize - len(j.data)
		if take > len(payload) {
			take = len(payload)
		}
		j.data = append(j.data, payload[:take]...)
		payload = payload[take:]
		if len(payload) == 0 {
			j.done = append(j.done, c)
			if len(j.data) == batchSize {
				sess.sealLocked(sealFull)
			}
			break
		}
		// The request continues past this batch: seal without completion.
		sess.sealLocked(sealFull)
	}
	if !arriving && sess.serving == 0 {
		sess.sealLocked(sealIdle)
	}
	sess.armLingerLocked()
}

// batchDone is the sink's note that one of the session's batches is
// written. When it was the last one served, the session is idle and a
// staged batch is sealed now rather than at the linger.
func (sess *session) batchDone() {
	sess.mu.Lock()
	sess.serving--
	if sess.serving == 0 && sess.staged != nil {
		sess.sealLocked(sealIdle)
		sess.armLingerLocked()
	}
	sess.mu.Unlock()
}

// sealLocked turns the staged job's buffer into a pooled batch and hands the
// job to the scheduler. Called with mu held; enqueueing under mu keeps the
// session's batches in sequence order in the scheduler's FIFO. The FIFO is
// bounded by the admission window, and the pipeline source's emit into a
// full first queue is the backpressure point. Sealed batches carry no
// deadline: their bytes are already part of the session's archive stream
// and must reach the writer or the stream is corrupt.
func (sess *session) sealLocked(trigger string) {
	j := sess.staged
	if j == nil {
		return
	}
	s := sess.srv
	sess.staged = nil
	j.batch = dedup.NewStreamBatch(sess.batchSeq, j.data, sess.chunker)
	sess.batchSeq++
	sess.serving++
	if m := s.cfg.Metrics; m != nil {
		m.Counter("server_batches_sealed_total", telemetry.Labels{"trigger": trigger}).Inc()
		m.Counter("server_batch_bytes_total", telemetry.Labels{}).Add(int64(len(j.data)))
	}
	sess.addOutstanding()
	s.dedupSched.Enqueue(0, j.item)
}

// flushPartial seals the partial batch outside the data path (client flush,
// linger expiry, stream end).
func (sess *session) flushPartial(trigger string) {
	sess.mu.Lock()
	sess.sealLocked(trigger)
	sess.mu.Unlock()
}

// armLingerLocked (re)arms the linger timer while a partial batch is
// staged. Called with mu held.
func (sess *session) armLingerLocked() {
	d := sess.srv.cfg.linger()
	if sess.staged == nil {
		if sess.linger != nil {
			sess.linger.Stop()
		}
		return
	}
	if sess.linger == nil {
		sess.linger = time.AfterFunc(d, func() { sess.flushPartial(sealLing) })
		return
	}
	sess.linger.Reset(d)
}

// finish drains the session: seal what remains, wait for the pipeline to
// answer every outstanding job, then send the final TEnd (carrying any
// residual archive bytes) and close.
func (sess *session) finish(clean bool) {
	sess.mu.Lock()
	if sess.linger != nil {
		sess.linger.Stop()
	}
	sess.sealLocked(sealEnd)
	sess.mu.Unlock()

	sess.cmu.Lock()
	sess.ended = true
	if sess.outstanding == 0 {
		sess.closeDrainedLocked()
	}
	sess.cmu.Unlock()

	select {
	case <-sess.drained:
	case <-sess.srv.ctx.Done():
		// Forced drain: canceled pipelines discard items without running
		// the sink, so outstanding may never reach zero.
	}

	if clean && !sess.dead.Load() {
		// All jobs are answered, so the sink no longer touches this
		// session's archive state: flush any tail the last result frame did
		// not carry and end the stream.
		var tail []byte
		if err := sess.dw.Flush(); err == nil {
			tail = sess.takeArchiveDelta()
		}
		sess.sendFrame(wire.Frame{Type: wire.TEnd, Svc: wire.SvcDedup, Payload: tail})
	}
}

// closeDrainedLocked closes the drained channel once. Called with cmu held.
func (sess *session) closeDrainedLocked() {
	select {
	case <-sess.drained:
	default:
		close(sess.drained)
	}
}

// addOutstanding registers one submitted job.
func (sess *session) addOutstanding() {
	sess.cmu.Lock()
	sess.outstanding++
	sess.cmu.Unlock()
}

// jobDone un-registers one job: a sink answered it, or the scheduler
// settled it through Expire or Drop.
func (sess *session) jobDone() {
	sess.cmu.Lock()
	sess.outstanding--
	if sess.ended && sess.outstanding == 0 {
		sess.closeDrainedLocked()
	}
	sess.cmu.Unlock()
}

// takeArchiveDelta removes and returns the archive bytes produced since the
// previous call. The delta aliases sess.out's storage, so it is valid only
// until the next archive write; sendFrame copies it into the wire writer.
// Only the sink (or finish, after the drain barrier) calls it.
func (sess *session) takeArchiveDelta() []byte {
	delta := sess.out.Bytes()
	sess.out.Reset()
	if len(delta) == 0 {
		return nil
	}
	return delta
}

// sendResult ships one TResult frame.
func (sess *session) sendResult(svc wire.Svc, seq uint64, tenant uint32, payload []byte) {
	sess.sendFrame(wire.Frame{Type: wire.TResult, Svc: svc, Tenant: tenant, Seq: seq, Payload: payload})
}

// sendReject fast-fails one request with a reason code and a retry-after
// hint, and counts the rejection under its reason label.
func (sess *session) sendReject(svc wire.Svc, tenant uint32, seq uint64, reason wire.Reason, retryAfter time.Duration) {
	sess.srv.countVerdict(svc, tenant, "rejected", reason)
	sess.sendFrame(wire.Frame{
		Type: wire.TReject, Svc: svc, Tenant: tenant, Seq: seq,
		Payload: wire.AppendRejectInfo(nil, reason, retryAfter),
	})
}

// sendFrame writes and flushes one frame; write errors mark the session
// dead (the pipeline keeps draining, responses are dropped).
func (sess *session) sendFrame(f wire.Frame) {
	if sess.dead.Load() {
		return
	}
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	sess.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if err := sess.fw.Write(f); err != nil {
		sess.dead.Store(true)
		return
	}
	if err := sess.fw.Flush(); err != nil {
		sess.dead.Store(true)
	}
}

// fail reports a fatal session error to the client and marks the session
// dead.
func (sess *session) fail(err error) {
	if sess.dead.Load() {
		return
	}
	sess.sendFrame(wire.Frame{Type: wire.TError, Payload: []byte(err.Error())})
	sess.dead.Store(true)
}
