// Package server is the streaming service front-end: it turns the repo's
// one-shot Dedup and Mandelbrot pipelines into resident services that
// multiplex many concurrent client sessions onto one shared SPar pipeline
// per application.
//
// The shape follows the paper's own runtime argument. FastFlow's bounded
// lock-free queues exist so a stream can absorb bursts with backpressure
// instead of unbounded buffering; the server applies the same discipline at
// the service boundary: a bounded admission window (-max-inflight) under
// which sessions exert TCP backpressure, and above which requests are
// fast-fail rejected with a TReject frame — never queued without bound,
// never a goroutine per item. Small client payloads are coalesced across
// requests into the pooled 1 MB dedup.Batch containers, sealed when full,
// as soon as the session is idle (no later frame in hand, no batch of it
// being served), when a client flushes, or when the linger bound expires.
// Requests that arrive while a batch is served share the next one, so
// batches grow with the load and a lone request waits for nothing.
//
// Graceful drain reuses the fault-tolerance layer's RunContext cancellation
// paths: Shutdown stops the accept loop, lets sessions flush and their
// in-flight batches drain through the pipeline, then ends the resident
// ToStream regions by closing the schedulers that are their sources;
// if the caller's context expires first, the shared context is canceled and
// the ff runtime's cancel+drain machinery aborts the streams without
// deadlock.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streamgpu/internal/core"
	"streamgpu/internal/dedup"
	"streamgpu/internal/diag"
	"streamgpu/internal/fault"
	"streamgpu/internal/gpu"
	"streamgpu/internal/health"
	"streamgpu/internal/mandel"
	"streamgpu/internal/pool"
	"streamgpu/internal/server/qos"
	"streamgpu/internal/server/wire"
	"streamgpu/internal/telemetry"
)

// Config sizes the server. The zero value serves with the documented
// defaults.
type Config struct {
	// MaxInflight is the admission high-water mark: the number of accepted,
	// not-yet-answered requests above which new requests are rejected with
	// TReject instead of queued (default 64).
	MaxInflight int
	// Linger bounds how long a partially filled dedup batch waits for the
	// session's next frame (default 2ms). A batch stays staged only while a
	// later frame is already in the reader's buffer or an earlier batch of
	// the session is being served; otherwise it is sealed at once. <= 0
	// keeps the default.
	Linger time.Duration
	// Workers replicates the batch-processing stage (default GOMAXPROCS).
	Workers int
	// BatchSize is the dedup coalescing target (default dedup.DefaultBatchSize).
	BatchSize int
	// MaxPayload caps one request frame's payload (default BatchSize).
	MaxPayload int
	// GPU offloads dedup batch processing to the simulated device (per-batch
	// kernels with retry and CPU degradation).
	GPU bool
	// Faults configures the GPU path's fault injector; the zero value
	// injects nothing.
	Faults fault.Config
	// Metrics, when set, receives the server's per-tenant counters and
	// histograms plus the pipeline and device instrumentation. nil is off.
	Metrics *telemetry.Registry
	// QoS is the per-tenant weight/rate/burst table (-tenant-weights). The
	// zero value gives every tenant weight 1 and no rate limit.
	QoS qos.Table
	// DefaultDeadline applies to requests that carry no deadline of their
	// own (-default-deadline). 0 disables deadline admission for them.
	DefaultDeadline time.Duration
	// Fleet is the simulated GPU pool for the dedup path, one spec per
	// device (-fleet; gpu.ParseFleet builds it); empty is one Titan XP. The
	// specs seed the health scoreboard's service-time baselines.
	Fleet []gpu.DeviceSpec
	// Health configures the per-device quarantine scoreboard; the zero
	// value uses the documented defaults. Only consulted when GPU is set.
	Health health.Config
	// ProbeInterval runs the diag probe suite against every device this
	// often in the background, feeding pass/fail into the scoreboard
	// (quarantined devices re-admit after clean probe cycles). 0 disables
	// background probing. Only consulted when GPU is set.
	ProbeInterval time.Duration
	// DeviceFaults, when set, overrides Faults per device — the chaos
	// harness's hook for degrading one device mid-stream.
	DeviceFaults func(dev int) fault.Config
	// Store, when set, is shared by every session's dedup-hint stage instead
	// of the default per-session table — the cluster layer injects its
	// content-addressed store here so duplicate blocks dedup across sessions
	// and nodes. Archive bytes are unaffected either way: each session's
	// Writer still makes the authoritative stream-order decision.
	Store dedup.BlockStore
}

func (c Config) maxInflight() int {
	if c.MaxInflight <= 0 {
		return 64
	}
	return c.MaxInflight
}

func (c Config) linger() time.Duration {
	if c.Linger <= 0 {
		return 2 * time.Millisecond
	}
	return c.Linger
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) batchSize() int {
	if c.BatchSize <= 0 {
		return dedup.DefaultBatchSize
	}
	return c.BatchSize
}

func (c Config) maxPayload() int {
	if c.MaxPayload > 0 {
		return c.MaxPayload
	}
	return c.batchSize()
}

// Server is a resident streaming service. Create with New, run with Serve,
// stop with Shutdown.
type Server struct {
	cfg Config

	ctx    context.Context
	cancel context.CancelFunc

	// The schedulers are the resident pipelines' sources: sessions enqueue
	// into one FIFO per service, and each pipeline's source goroutine
	// drains it in order and emits the items (an emit into a full first
	// stage queue is the backpressure point). Queue depth is bounded by the
	// admission window — every scheduled item holds admitted requests — so
	// the FIFOs cannot grow without bound.
	dedupSched  *qos.Sched
	mandelSched *qos.Sched
	// emitDedup and emitMandel are the pipelines' emit functions. Each
	// source goroutine stores its own before its first Next, and only that
	// goroutine runs the items that call it.
	emitDedup  func(any)
	emitMandel func(any)

	adm    *admission
	est    *estimator
	scores *health.Scoreboard // nil when GPU is off
	fleet  []gpu.DeviceSpec   // resolved per-device specs (GPU only)

	probeStop chan struct{} // stops the background prober
	probing   bool          // prober launched (guarded by mu)
	probeWG   sync.WaitGroup

	inflight atomic.Int64

	payloads *pool.Bytes
	jobs     *pool.Pool[*job]

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}
	draining bool
	started  bool // pipelines launched (Start)
	serving  bool // accept loop claimed (Serve)

	sessWG sync.WaitGroup
	pipeWG sync.WaitGroup

	pipeMu   sync.Mutex
	pipeErrs []error

	done        chan struct{}
	shutdownErr error
}

// New builds a server from cfg.
func New(cfg Config) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		ctx:      ctx,
		cancel:   cancel,
		payloads: pool.NewBytes("server.payload"),
		sessions: make(map[*session]struct{}),
		done:     make(chan struct{}),
	}
	s.jobs = pool.New("server.job", s.newJob)
	s.adm = newAdmission(cfg.QoS, cfg.maxInflight(), nil)
	s.est = newEstimator()
	s.dedupSched = qos.NewSched(0, nil, nil)
	s.mandelSched = qos.NewSched(0, nil, nil)
	if cfg.GPU {
		s.fleet = cfg.Fleet
		if len(s.fleet) == 0 {
			s.fleet = []gpu.DeviceSpec{gpu.TitanXPSpec()}
		}
		s.probeStop = make(chan struct{})
		hc := cfg.Health
		hc.Devices = len(s.fleet)
		hc.OnTransition = s.quarantineTransition
		s.scores = health.New(hc)
		// Seed per-device service-time baselines from the specs so a slow
		// device on a heterogeneous fleet is judged against its own expected
		// pace, not the fleet's fastest.
		bs := cfg.batchSize()
		for i, spec := range s.fleet {
			s.scores.SetBaseline(i, spec.ServiceSecondsHint(bs)/float64(bs))
		}
	}
	s.payloads.SetTelemetry(cfg.Metrics)
	cfg.Metrics.GaugeFunc("server_inflight", telemetry.Labels{}, func() float64 {
		return float64(s.inflight.Load())
	})
	cfg.Metrics.GaugeFunc("server_sched_depth", telemetry.Labels{"svc": "dedup"}, func() float64 {
		return float64(s.dedupSched.Depth())
	})
	cfg.Metrics.GaugeFunc("server_sched_depth", telemetry.Labels{"svc": "mandel"}, func() float64 {
		return float64(s.mandelSched.Depth())
	})
	if s.scores != nil {
		cfg.Metrics.GaugeFunc("server_devices_quarantined", telemetry.Labels{}, func() float64 {
			return float64(s.scores.QuarantinedCount())
		})
		for i := range s.fleet {
			dev := i
			cfg.Metrics.GaugeFunc("health_device_score", telemetry.Labels{"device": fmt.Sprintf("gpu%d", dev)}, func() float64 {
				return s.scores.Score(dev)
			})
		}
	}
	return s
}

// MaxPayload is the cap on one request frame's payload that sessions
// enforce; a router reading frames ahead of the server must apply the same.
func (s *Server) MaxPayload() int { return s.cfg.maxPayload() }

// Health exposes the device scoreboard (nil when the GPU path is off) — the
// chaos harness asserts quarantine and re-admission through it.
func (s *Server) Health() *health.Scoreboard { return s.scores }

// Start launches the resident pipelines without an accept loop. Serve calls
// it implicitly; the cluster layer calls it directly because it owns the
// listener and hands accepted connections in through ServeConn. Safe to call
// more than once; only the first call starts anything.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	s.startPipelines()
}

// Serve accepts connections on ln and blocks until Shutdown completes (or
// the listener fails for a reason other than shutdown). The resident
// pipelines start on the first call.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.serving {
		s.mu.Unlock()
		return errors.New("server: Serve called twice")
	}
	s.serving = true
	s.ln = ln
	s.mu.Unlock()

	s.Start()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				<-s.done
				return s.shutdownErr
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		if sess := s.register(conn); sess != nil {
			go sess.run()
		}
	}
}

// ServeConn runs one already-accepted connection as a client session,
// blocking until the session finishes; conn is closed on return. It reports
// false when the server is draining (the connection is closed unserved).
// This is the cluster layer's entry point: the node's accept loop routes the
// connection by tenant ownership first and hands it here only when this node
// is the owner.
func (s *Server) ServeConn(conn net.Conn) bool {
	s.Start()
	sess := s.register(conn)
	if sess == nil {
		return false
	}
	sess.run()
	return true
}

// register adds a session for conn to the live set, or closes conn and
// returns nil when the server is draining. The session joins sessWG under
// the lock Shutdown takes to set draining, so a Shutdown either keeps the
// session out or waits for it.
func (s *Server) register(conn net.Conn) *session {
	sess := newSession(s, conn)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		conn.Close()
		return nil
	}
	s.sessions[sess] = struct{}{}
	s.sessWG.Add(1)
	s.mu.Unlock()
	return sess
}

// Shutdown drains the server: stop accepting, let sessions flush and their
// in-flight work complete, then end the resident pipelines. If ctx expires
// first, the shared context is canceled — sessions are disconnected and the
// ff cancel+drain path aborts the streams — and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		// A concurrent Shutdown is already draining; wait for it, but honor
		// our own ctx — the other call may be running under a longer one.
		select {
		case <-s.done:
			return s.shutdownErr
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.draining = true
	ln := s.ln
	probing := s.probing
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if probing {
		close(s.probeStop)
		// close(probeStop) unblocks the prober's select, so this wait is
		// finite by construction.
		s.probeWG.Wait()
	}

	var forced error
	if !s.waitCtx(ctx, &s.sessWG) {
		// Sessions did not drain in time: cancel the shared context (which
		// unblocks submissions and session waits) and force-close their
		// connections so read loops exit.
		forced = ctx.Err()
		s.cancel()
		s.mu.Lock()
		for sess := range s.sessions {
			sess.conn.Close()
		}
		s.mu.Unlock()
		s.sessWG.Wait()
	}

	// Sessions are gone, so nothing enqueues anymore. Closing the
	// schedulers ends the resident ToStream regions through their normal
	// EOS path: each source's Next reports done once its queue is settled
	// (graceful drain finds them empty — every session waited for its jobs).
	s.dedupSched.Close()
	s.mandelSched.Close()
	if !s.waitCtx(ctx, &s.pipeWG) {
		forced = ctx.Err()
		s.cancel()
		// cancel aborts the resident streams through the ff cancel+drain
		// path, so this wait ends without ctx.
		s.pipeWG.Wait()
	}
	s.cancel()
	// A canceled source may have stopped before its scheduler emptied; Next
	// on a closed scheduler settles what is left through each item's Drop.
	s.dedupSched.Next()
	s.mandelSched.Next()

	s.pipeMu.Lock()
	for _, err := range s.pipeErrs {
		if err != nil && !errors.Is(err, context.Canceled) && forced == nil {
			forced = err
		}
	}
	s.pipeMu.Unlock()
	s.shutdownErr = forced
	close(s.done)
	return forced
}

// waitCtx waits for wg, bounded by ctx; it reports whether the group
// finished in time.
func (s *Server) waitCtx(ctx context.Context, wg *sync.WaitGroup) bool {
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
		return true
	case <-ctx.Done():
		return false
	}
}

// startPipelines launches the two resident ToStream regions. Each runs
// until its scheduler is closed and drained (graceful drain) or the shared
// context is canceled (forced drain).
func (s *Server) startPipelines() {
	gopt := dedup.GPUOptions{
		Options:   dedup.Options{Metrics: s.cfg.Metrics},
		Faults:    s.cfg.Faults,
		Fleet:     s.fleet,
		FaultsFor: s.cfg.DeviceFaults,
		Health:    s.scores,
	}
	useGPU := s.cfg.GPU
	if useGPU && s.cfg.ProbeInterval > 0 {
		s.mu.Lock()
		s.probing = true
		s.mu.Unlock()
		s.probeWG.Add(1)
		go s.probeLoop()
	}

	dedupTS := core.NewToStream(core.Telemetry(s.cfg.Metrics, "serve-dedup")).
		StageWorkers(func() core.StageFunc {
			// Each replica hashes, dedup-marks and compresses batches on
			// its own Processor, against the batch's session store.
			p := dedup.NewProcessor(gopt, useGPU)
			return func(item any, emit func(any)) {
				j := item.(*job)
				p.Process(j.batch, j.sess.store)
				emit(j)
			}
		}, core.Replicate(s.cfg.workers()), core.Name("process")).
		Stage(s.dedupSink, core.Name("write+respond"))

	mandelTS := core.NewToStream(core.Telemetry(s.cfg.Metrics, "serve-mandel")).
		Stage(s.mandelCompute, core.Replicate(s.cfg.workers()), core.Name("compute")).
		Stage(s.mandelSink, core.Name("respond"))

	s.pipeWG.Add(2)
	go func() {
		defer s.pipeWG.Done()
		err := dedupTS.RunContext(s.ctx, func(emit func(any)) {
			s.emitDedup = emit
			runSched(s.dedupSched)
		})
		s.recordPipeErr(err)
	}()
	go func() {
		defer s.pipeWG.Done()
		err := mandelTS.RunContext(s.ctx, func(emit func(any)) {
			s.emitMandel = emit
			runSched(s.mandelSched)
		})
		s.recordPipeErr(err)
	}()
}

// runSched is a resident pipeline's source loop: it runs the scheduler's
// items in Enqueue order — each emits its job into the pipeline —
// until the scheduler is closed and drained. Expired items are settled
// inside Next, on this goroutine.
func runSched(sched *qos.Sched) {
	for {
		it, ok := sched.Next()
		if !ok {
			return
		}
		it.Run()
	}
}

// probeLoop is the background prober: every ProbeInterval it runs the diag
// suite over the fleet (small workloads — the point is the verdict, not the
// numbers), records per-device pass/fail into the scoreboard, and ticks the
// idle-decay clock. Quarantined devices earn re-admission through these
// cycles even when placement sends them no traffic.
func (s *Server) probeLoop() {
	defer s.probeWG.Done()
	ticker := time.NewTicker(s.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.probeStop:
			return
		case <-s.ctx.Done():
			return
		case <-ticker.C:
			s.probeCycle()
		}
	}
}

// probeCycle runs one diag pass and feeds the scoreboard.
func (s *Server) probeCycle() {
	rep := diag.Run(diag.Options{
		Fleet:     s.fleet,
		FaultsFor: s.cfg.DeviceFaults,
		Metrics:   s.cfg.Metrics,
		VectorLen: 4 << 10,
		GrindOps:  4,
	})
	for i := range s.fleet {
		s.scores.RecordProbe(i, rep.DevicePass(i))
	}
	s.scores.Tick()
}

func (s *Server) recordPipeErr(err error) {
	s.pipeMu.Lock()
	s.pipeErrs = append(s.pipeErrs, err)
	s.pipeMu.Unlock()
}

// dedupSink is the serial ordered tail of the dedup pipeline: it appends
// each batch to its session's archive stream, ships the archive delta to
// the client for every request the batch completes, and recycles the batch
// and its payload buffer.
func (s *Server) dedupSink(item any, _ func(any)) {
	j := item.(*job)
	sess := j.sess
	if err := j.batch.WriteBlocks(sess.dw); err != nil {
		sess.fail(fmt.Errorf("archive write: %w", err))
	}
	if len(j.done) > 0 {
		if err := sess.dw.Flush(); err != nil {
			sess.fail(fmt.Errorf("archive flush: %w", err))
		}
		// The archive delta belongs to the session stream, not to one
		// request; it rides the first completion frame and the rest are
		// bare acknowledgements. Clients concatenate every result payload.
		// A batch completing no request leaves its bytes buffered for the
		// next completing batch (or the final TEnd flush).
		delta := sess.takeArchiveDelta()
		now := time.Now()
		for i, c := range j.done {
			payload := delta
			if i > 0 {
				payload = nil
			}
			// Observe first: once the result is on the wire the client may
			// offer its next request, which must see this sample and slot.
			s.observeDone(wire.SvcDedup, c.tenant, len(payload), now.Sub(c.t0))
			sess.sendResult(wire.SvcDedup, c.seq, c.tenant, payload)
		}
	}
	sess.batchDone()
	s.recycleJob(j)
	sess.jobDone()
}

// mandelCompute is one replica of the Mandelbrot row farm.
func (s *Server) mandelCompute(item any, emit func(any)) {
	mj := item.(*mandelJob)
	dim := int(mj.req.Dim)
	out := s.payloads.Get(dim * int(mj.req.NRows))
	p := mandelParams(mj.req)
	for r := 0; r < int(mj.req.NRows); r++ {
		p.ComputeRow(int(mj.req.Row0)+r, out[r*dim:(r+1)*dim])
	}
	mj.out = out
	emit(mj)
}

// mandelSink responds to completed row-range requests in order.
func (s *Server) mandelSink(item any, _ func(any)) {
	mj := item.(*mandelJob)
	s.observeDone(wire.SvcMandel, mj.tenant, len(mj.out), time.Since(mj.t0))
	mj.sess.sendResult(wire.SvcMandel, mj.seq, mj.tenant, mj.out)
	s.payloads.Release(mj.out)
	mj.sess.jobDone()
}

// mandelParams maps a validated request onto the paper's complex-plane
// window.
func mandelParams(r MandelReq) mandel.Params {
	return mandel.Params{
		Dim: int(r.Dim), Niter: int(r.Niter),
		InitA: -2.0, InitB: -1.25, Range: 2.5,
	}
}

// observeDone finishes one accepted request: service-time histogram,
// response byte counter, admission-window release (shared and per-tenant),
// and the deadline estimator's service-time sample.
func (s *Server) observeDone(svc wire.Svc, tenant uint32, respBytes int, d time.Duration) {
	s.releaseAdmitted(tenant)
	s.est.observe(svc, d)
	if m := s.cfg.Metrics; m != nil {
		m.Counter("server_response_bytes_total", tenantLabels(svc, tenant)).Add(int64(respBytes))
		m.Histogram("server_service_seconds", nil, tenantLabels(svc, tenant)).ObserveDuration(d)
	}
}

// releaseAdmitted returns one admitted request's shared-window slot and
// tenant share without recording a completion — the path for requests that
// die before reaching a sink (forced drain, deadline expiry in queue).
func (s *Server) releaseAdmitted(tenant uint32) {
	s.inflight.Add(-1)
	s.adm.release(tenant)
}
