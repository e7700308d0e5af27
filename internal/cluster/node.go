package cluster

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"streamgpu/internal/fault"
	"streamgpu/internal/server"
	"streamgpu/internal/server/wire"
	"streamgpu/internal/telemetry"
)

// Config configures one cluster node.
type Config struct {
	// Addr is the TCP listen address ("host:port"; ":0" picks a port).
	Addr string
	// Advertise is the address peers and clients reach this node at; defaults
	// to the listener's address. It doubles as the node's member name.
	Advertise string
	// Join lists seed peers to gossip with at startup. Empty bootstraps a
	// one-node cluster that others join.
	Join []string
	// GossipSeed drives probe-target selection (deterministic under test).
	GossipSeed int64
	// GossipInterval is the probe period (default 200ms; tests run ~15ms).
	GossipInterval time.Duration
	// PingTimeout bounds one ping or ping-req RPC (default GossipInterval).
	PingTimeout time.Duration
	// SuspectTimeout is the refutation window before Suspect becomes Dead
	// (default 4× GossipInterval).
	SuspectTimeout time.Duration
	// Faults injects node-level faults: every accepted connection, gossip
	// tick, and served peer RPC consults the injector, and DeviceLost kills
	// the whole node (abrupt crash, as peers see it). Zero injects nothing.
	Faults fault.Config
	// Server configures the embedded streamd server. Its Store and Metrics
	// fields are overridden by the node (Metrics if the node's Metrics is
	// set).
	Server server.Config
	// Metrics receives the node's cluster gauges and counters plus the
	// embedded server's instrumentation. nil is off.
	Metrics *telemetry.Registry
}

func (c Config) gossipInterval() time.Duration {
	if c.GossipInterval <= 0 {
		return 200 * time.Millisecond
	}
	return c.GossipInterval
}

func (c Config) pingTimeout() time.Duration {
	if c.PingTimeout > 0 {
		return c.PingTimeout
	}
	return c.gossipInterval()
}

func (c Config) suspectTimeout() time.Duration {
	if c.SuspectTimeout > 0 {
		return c.SuspectTimeout
	}
	return 4 * c.gossipInterval()
}

// indirectK is the helper count for indirect probes.
const indirectK = 2

// Node is one streamd cluster member: a listener that routes client
// connections by ring ownership (serve or redirect), a gossip loop
// that keeps the membership view converging, an embedded server.Server for
// the sessions it owns, and a partition of the cluster-wide dedup store.
type Node struct {
	cfg  Config
	self string // advertise address == member name

	srv   *server.Server
	store *Store
	peers *peerPool

	detMu sync.Mutex
	det   *Detector
	// lastVer is the detector version the current ring was built at.
	lastVer uint64

	ring atomic.Pointer[Ring]

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	inject *fault.Injector // nil when Faults is zero; guarded by mu

	wg     sync.WaitGroup
	killed atomic.Bool
	dead   chan struct{} // closed when the embedded server has shut down

	redirects *telemetry.Counter
	gossipRx  *telemetry.Counter
	gossipTx  *telemetry.Counter
}

// NewNode builds a node; Start brings it up.
func NewNode(cfg Config) *Node {
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{
		cfg:       cfg,
		ctx:       ctx,
		cancel:    cancel,
		conns:     make(map[net.Conn]struct{}),
		dead:      make(chan struct{}),
		redirects: cfg.Metrics.Counter("cluster_redirects_total", telemetry.Labels{}),
		gossipRx:  cfg.Metrics.Counter("cluster_gossip_messages_total", telemetry.Labels{"dir": "rx"}),
		gossipTx:  cfg.Metrics.Counter("cluster_gossip_messages_total", telemetry.Labels{"dir": "tx"}),
	}
	if cfg.Faults != (fault.Config{}) {
		n.inject = fault.New(cfg.Faults)
	}
	return n
}

// Start binds the listener, launches the accept and gossip loops, and starts
// the embedded server's pipelines. It returns once the node is serving.
func (n *Node) Start() error {
	ln, err := net.Listen("tcp", n.cfg.Addr)
	if err != nil {
		return fmt.Errorf("cluster: listen %s: %w", n.cfg.Addr, err)
	}
	n.mu.Lock()
	n.ln = ln
	n.mu.Unlock()
	n.self = n.cfg.Advertise
	if n.self == "" {
		n.self = ln.Addr().String()
	}

	n.det = NewDetector(DetectorConfig{
		Self:           n.self,
		Seed:           n.cfg.GossipSeed,
		SuspectTimeout: n.cfg.suspectTimeout(),
	})
	seeds := make([]Update, 0, len(n.cfg.Join))
	for _, addr := range n.cfg.Join {
		if addr != "" && addr != n.self {
			seeds = append(seeds, Update{Member: addr, State: Alive})
		}
	}
	n.det.Absorb(seeds, time.Now())
	n.ring.Store(NewRing(0, DefaultVNodes, n.det.Active()))
	n.detMu.Lock()
	n.lastVer = n.det.Version()
	n.detMu.Unlock()

	n.peers = newPeerPool(n.cfg.pingTimeout())
	n.store = NewStore(n.self, n.cfg.Metrics)
	n.store.Bind(
		func(h [20]byte) string { return n.ring.Load().OwnerHash(h) },
		func(addr string, req []byte) ([]byte, error) {
			return n.peers.rpc(addr, wire.TStore, req, 2*time.Second)
		},
	)

	scfg := n.cfg.Server
	scfg.Store = n.store
	if n.cfg.Metrics != nil {
		scfg.Metrics = n.cfg.Metrics
	}
	n.srv = server.New(scfg)
	n.srv.Start()

	n.registerGauges()

	n.wg.Add(2)
	go n.acceptLoop(ln)
	go n.gossipLoop()
	return nil
}

func (n *Node) registerGauges() {
	m := n.cfg.Metrics
	count := func(pick func(alive, suspect, dead int) int) func() float64 {
		return func() float64 {
			n.detMu.Lock()
			a, s, d := n.det.CountByState()
			n.detMu.Unlock()
			return float64(pick(a, s, d))
		}
	}
	m.GaugeFunc("cluster_members", telemetry.Labels{"state": "alive"},
		count(func(a, _, _ int) int { return a + 1 })) // + self
	m.GaugeFunc("cluster_members", telemetry.Labels{"state": "suspect"},
		count(func(_, s, _ int) int { return s }))
	m.GaugeFunc("cluster_members", telemetry.Labels{"state": "dead"},
		count(func(_, _, d int) int { return d }))
	m.GaugeFunc("cluster_ring_size", telemetry.Labels{}, func() float64 {
		return float64(n.ring.Load().Len())
	})
	m.GaugeFunc("cluster_incarnation", telemetry.Labels{}, func() float64 {
		n.detMu.Lock()
		defer n.detMu.Unlock()
		return float64(n.det.Incarnation())
	})
	m.GaugeFunc("cluster_store_blocks", telemetry.Labels{}, func() float64 {
		return float64(n.store.Blocks())
	})
}

// Addr returns the node's advertised address (and member name).
func (n *Node) Addr() string { return n.self }

// Dead is closed once the node has been killed (fault injection or Kill)
// and its embedded server has shut down — the daemon's cue to exit instead
// of lingering as a process whose node is gone.
func (n *Node) Dead() <-chan struct{} { return n.dead }

// StoreRef exposes the node's store partition (test hook).
func (n *Node) StoreRef() *Store { return n.store }

// Owner returns the node this node's ring places tenant on.
func (n *Node) Owner(tenant uint32) string { return n.ring.Load().OwnerTenant(tenant) }

// Members returns the node's current view: self plus every non-dead member.
func (n *Node) Members() []string {
	n.detMu.Lock()
	defer n.detMu.Unlock()
	return n.det.Active()
}

// faultCheck consults the node-level injector; DeviceLost crashes the node.
// It reports whether the node is still alive.
func (n *Node) faultCheck(op fault.Op) bool {
	if n.killed.Load() {
		return false
	}
	n.mu.Lock()
	inject := n.inject
	var c fault.Class
	if inject != nil {
		c = inject.Check(op)
	}
	n.mu.Unlock()
	if c == fault.DeviceLost {
		n.Kill()
		return false
	}
	return true
}

// Kill crashes the node abruptly, as its peers and clients experience a
// process death: the listener and every open connection close immediately,
// the loops stop, and the embedded server is force-drained in the
// background. Idempotent.
func (n *Node) Kill() {
	if !n.killed.CompareAndSwap(false, true) {
		return
	}
	n.cancel()
	n.mu.Lock()
	ln := n.ln
	conns := make([]net.Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	if n.peers != nil {
		n.peers.closeAll()
	}
	go func() {
		defer close(n.dead)
		if n.srv == nil {
			return // Start never got far enough to build the server
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already-expired context: take the forced drain path now
		n.srv.Shutdown(ctx)
	}()
}

// Close stops the node and waits for every goroutine it started, so tests
// can assert leak-free teardown. After a Kill it only waits.
func (n *Node) Close() error {
	n.Kill()
	<-n.dead
	n.wg.Wait()
	return nil
}

// track registers an accepted or dialed connection so Kill can sever it.
// It reports false (and closes the conn) when the node is already dead.
func (n *Node) track(c net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.killed.Load() {
		c.Close()
		return false
	}
	n.conns[c] = struct{}{}
	return true
}

func (n *Node) untrack(c net.Conn) {
	c.Close()
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

func (n *Node) acceptLoop(ln net.Listener) {
	defer n.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by Kill/Close
		}
		if !n.faultCheck(fault.Transfer) || !n.track(conn) {
			conn.Close()
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handleConn(conn)
		}()
	}
}

// handleConn classifies one accepted connection by its first frame: peer
// traffic (TGossip/TStore) enters the RPC serve loop; everything else is a
// client session, routed by tenant ownership.
func (n *Node) handleConn(conn net.Conn) {
	defer n.untrack(conn)
	br := bufio.NewReaderSize(conn, 1<<16)
	for {
		f, raw, err := wire.ReadRaw(br, n.srv.MaxPayload())
		if err != nil {
			return
		}
		switch f.Type {
		case wire.TGossip, wire.TStore:
			n.servePeer(conn, br, f)
			return
		case wire.TData:
			owner := n.ring.Load().OwnerTenant(f.Tenant)
			if owner != n.self && owner != "" {
				n.redirect(conn, f, owner)
				continue // client re-dials; drain any further frames
			}
		}
		// This node owns the session (or the frame is stream control that
		// precedes any data): hand the connection to the embedded server,
		// replaying the consumed bytes.
		n.srv.ServeConn(&replayConn{Conn: conn, pre: raw, br: br})
		return
	}
}

// redirect answers one non-owned TData with the owner's address. The write
// is direct and small; a failed write just ends the connection early.
func (n *Node) redirect(conn net.Conn, f wire.Frame, owner string) {
	n.redirects.Inc()
	out := wire.Append(nil, wire.Frame{
		Type:    wire.TRedirect,
		Svc:     f.Svc,
		Tenant:  f.Tenant,
		Seq:     f.Seq,
		Payload: wire.AppendRedirectInfo(nil, n.cfg.gossipInterval(), owner),
	})
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	_, _ = conn.Write(out)
	conn.SetWriteDeadline(time.Time{})
}

// replayConn replays already-consumed bytes (the routed first frame plus the
// reader's buffer) before reading from the connection, so the embedded
// server sees the byte stream from its start.
type replayConn struct {
	net.Conn
	pre []byte
	br  *bufio.Reader
}

func (rc *replayConn) Read(p []byte) (int, error) {
	if len(rc.pre) > 0 {
		n := copy(p, rc.pre)
		rc.pre = rc.pre[n:]
		return n, nil
	}
	return rc.br.Read(p)
}

// servePeer is the node→node RPC loop: each request frame (TGossip or
// TStore) gets one response frame of the same type and sequence number on
// the same connection.
func (n *Node) servePeer(conn net.Conn, br *bufio.Reader, f wire.Frame) {
	for {
		if !n.faultCheck(fault.Kernel) {
			return
		}
		var resp []byte
		switch f.Type {
		case wire.TGossip:
			n.gossipRx.Inc()
			resp = n.handleGossip(f.Payload)
		case wire.TStore:
			resp = n.store.HandleRPC(f.Payload)
		default:
			return
		}
		out := wire.Append(nil, wire.Frame{Type: f.Type, Svc: f.Svc, Seq: f.Seq, Payload: resp})
		if _, err := conn.Write(out); err != nil {
			return
		}
		var err error
		if f, _, err = wire.ReadRaw(br, n.srv.MaxPayload()); err != nil {
			return
		}
	}
}

// handleGossip processes one membership message and returns the ack payload.
func (n *Node) handleGossip(payload []byte) []byte {
	g, ok := parseGossip(payload)
	if !ok {
		return nil
	}
	now := time.Now()
	n.detMu.Lock()
	n.det.Absorb(g.Updates, now)
	updates := n.det.Updates()
	n.detMu.Unlock()
	n.maybeRebuildRing()

	ack := gossipMsg{Kind: gossipAck, Ok: true, From: n.self, Updates: updates}
	switch g.Kind {
	case gossipPing:
	case gossipPingReq:
		// Relay: probe the target on the requester's behalf.
		ack.Ok = n.ping(g.Target) == nil
	default:
		return nil
	}
	return ack.encode(nil)
}

// gossipLoop is the SWIM probe driver: every interval, advance the detector
// (suspect timeouts, next target), run one probe round, absorb what came
// back, and rebuild the ring if the active set moved.
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.gossipInterval())
	defer t.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-t.C:
		}
		if !n.faultCheck(fault.Kernel) {
			return
		}
		n.detMu.Lock()
		target, ok := n.det.Tick(time.Now())
		n.detMu.Unlock()
		n.maybeRebuildRing()
		if !ok {
			continue
		}
		alive := n.ping(target) == nil
		if !alive {
			n.detMu.Lock()
			helpers := n.det.IndirectTargets(target, indirectK)
			n.detMu.Unlock()
			for _, h := range helpers {
				if n.pingReq(h, target) {
					alive = true
					break
				}
			}
		}
		n.detMu.Lock()
		n.det.ProbeResult(target, alive, time.Now())
		n.detMu.Unlock()
		n.maybeRebuildRing()
	}
}

// maybeRebuildRing rebuilds the ring when the detector's active set has
// changed since the last build.
func (n *Node) maybeRebuildRing() {
	n.detMu.Lock()
	ver := n.det.Version()
	if ver == n.lastVer {
		n.detMu.Unlock()
		return
	}
	n.lastVer = ver
	members := n.det.Active()
	n.detMu.Unlock()
	n.ring.Store(NewRing(0, DefaultVNodes, members))
}

// ping sends one direct probe to addr, absorbing the piggybacked membership
// table from the ack.
func (n *Node) ping(addr string) error {
	return n.gossipRPC(addr, gossipMsg{Kind: gossipPing, From: n.self, Updates: n.snapshotUpdates()})
}

// pingReq asks helper to probe target; it reports whether the helper
// vouches for the target being alive.
func (n *Node) pingReq(helper, target string) bool {
	msg := gossipMsg{Kind: gossipPingReq, From: n.self, Target: target, Updates: n.snapshotUpdates()}
	ack, err := n.gossipRPCAck(helper, msg)
	return err == nil && ack.Ok
}

func (n *Node) snapshotUpdates() []Update {
	n.detMu.Lock()
	defer n.detMu.Unlock()
	return n.det.Updates()
}

func (n *Node) gossipRPC(addr string, msg gossipMsg) error {
	_, err := n.gossipRPCAck(addr, msg)
	return err
}

func (n *Node) gossipRPCAck(addr string, msg gossipMsg) (gossipMsg, error) {
	n.gossipTx.Inc()
	resp, err := n.peers.rpc(addr, wire.TGossip, msg.encode(nil), n.cfg.pingTimeout())
	if err != nil {
		return gossipMsg{}, err
	}
	ack, ok := parseGossip(resp)
	if !ok || ack.Kind != gossipAck {
		return gossipMsg{}, fmt.Errorf("cluster: bad ack from %s", addr)
	}
	n.detMu.Lock()
	n.det.Absorb(ack.Updates, time.Now())
	n.detMu.Unlock()
	n.maybeRebuildRing()
	return ack, nil
}

// peerPool keeps one cached connection per peer for node→node RPCs. Calls to
// the same peer serialize on its connection (gossip and store traffic is
// small and frequent; one in-flight RPC per peer keeps the protocol trivially
// request/response); calls to different peers run concurrently.
type peerPool struct {
	mu     sync.Mutex
	peers  map[string]*peer
	closed bool
	dialT  time.Duration
}

type peer struct {
	mu   sync.Mutex // serializes RPCs on this peer (held across the round trip)
	cmu  sync.Mutex // guards conn/br only — closeAll severs mid-RPC without p.mu
	conn net.Conn
	br   *bufio.Reader
	seq  uint64
}

// setConn swaps the cached connection under cmu so closeAll can read it
// race-free while an RPC is in flight.
func (p *peer) setConn(c net.Conn, br *bufio.Reader) {
	p.cmu.Lock()
	p.conn = c
	p.br = br
	p.cmu.Unlock()
}

func newPeerPool(dialTimeout time.Duration) *peerPool {
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	return &peerPool{peers: make(map[string]*peer), dialT: dialTimeout}
}

// rpc sends one request frame of type typ to addr and returns the response
// payload, which aliases the response frame ReadRaw allocated. Any error
// tears the cached connection down so the next call redials.
func (pp *peerPool) rpc(addr string, typ wire.Type, payload []byte, timeout time.Duration) ([]byte, error) {
	pp.mu.Lock()
	if pp.closed {
		pp.mu.Unlock()
		return nil, fmt.Errorf("cluster: peer pool closed")
	}
	p := pp.peers[addr]
	if p == nil {
		p = &peer{}
		pp.peers[addr] = p
	}
	pp.mu.Unlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		conn, err := net.DialTimeout("tcp", addr, pp.dialT)
		if err != nil {
			return nil, err
		}
		p.setConn(conn, bufio.NewReaderSize(conn, 1<<16))
	}
	fail := func(err error) ([]byte, error) {
		p.conn.Close()
		p.setConn(nil, nil)
		return nil, err
	}
	p.seq++
	out := wire.Append(nil, wire.Frame{Type: typ, Seq: p.seq, Payload: payload})
	p.conn.SetDeadline(time.Now().Add(timeout))
	if _, err := p.conn.Write(out); err != nil {
		return fail(err)
	}
	f, _, err := wire.ReadRaw(p.br, 0)
	if err != nil {
		return fail(err)
	}
	if f.Type != typ || f.Seq != p.seq {
		return fail(fmt.Errorf("cluster: bad rpc response from %s", addr))
	}
	p.conn.SetDeadline(time.Time{})
	return f.Payload, nil
}

// closeAll severs every cached peer connection and refuses new RPCs
// (Kill/Close). In-flight RPCs fail and their callers fail open.
func (pp *peerPool) closeAll() {
	pp.mu.Lock()
	pp.closed = true
	peers := make([]*peer, 0, len(pp.peers))
	for _, p := range pp.peers {
		peers = append(peers, p)
	}
	pp.mu.Unlock()
	for _, p := range peers {
		// Close without taking p.mu: an in-flight RPC holds it while blocked
		// in a read, and closing the conn is what unblocks it. cmu guards the
		// pointer itself and is never held across I/O.
		p.cmu.Lock()
		if p.conn != nil {
			p.conn.Close()
		}
		p.cmu.Unlock()
	}
}
