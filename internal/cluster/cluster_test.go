package cluster_test

import (
	"bytes"
	"io"
	"net"
	"strconv"
	"testing"
	"time"

	"streamgpu/internal/cluster"
	"streamgpu/internal/dedup"
	"streamgpu/internal/fault"
	"streamgpu/internal/loadgen"
	"streamgpu/internal/server"
	"streamgpu/internal/server/wire"
	"streamgpu/internal/telemetry"
	"streamgpu/internal/testutil"
	"streamgpu/internal/workload"
)

// startCluster brings up n in-process nodes on ephemeral ports: node 0
// bootstraps, the rest join it, and the helper blocks until every node sees
// all n members and their rings agree. mod tweaks a node's config before
// start (fault injection).
func startCluster(t *testing.T, n int, mod func(i int, cfg *cluster.Config)) ([]*cluster.Node, []*telemetry.Registry) {
	t.Helper()
	nodes := make([]*cluster.Node, 0, n)
	regs := make([]*telemetry.Registry, 0, n)
	var join []string
	for i := 0; i < n; i++ {
		reg := telemetry.New()
		cfg := cluster.Config{
			Addr:           "127.0.0.1:0",
			Join:           append([]string(nil), join...),
			GossipSeed:     int64(1000 + i),
			GossipInterval: 15 * time.Millisecond,
			// Generous probe windows relative to the gossip interval: under
			// the race detector a loaded scheduler can stall an ack past the
			// default (one interval), and a false suspicion would move ring
			// ownership mid-test. Real crashes are detected by refused
			// connections, not timeouts, so these do not slow failover.
			PingTimeout:    150 * time.Millisecond,
			SuspectTimeout: 300 * time.Millisecond,
			Server:         server.Config{Linger: time.Millisecond},
			Metrics:        reg,
		}
		if mod != nil {
			mod(i, &cfg)
		}
		nd := cluster.NewNode(cfg)
		if err := nd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nd.Close() })
		join = append(join, nd.Addr())
		nodes = append(nodes, nd)
		regs = append(regs, reg)
	}
	waitMembers(t, nodes, n)
	waitRingAgreement(t, nodes)
	return nodes, regs
}

// waitMembers blocks until every listed node's active view has want members.
func waitMembers(t *testing.T, nodes []*cluster.Node, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ok := true
		for _, nd := range nodes {
			if len(nd.Members()) != want {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			for _, nd := range nodes {
				t.Logf("%s sees %v", nd.Addr(), nd.Members())
			}
			t.Fatalf("cluster did not converge to %d members", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitRingAgreement blocks until all nodes place a probe set of tenants
// identically (the ring rebuild can trail the membership view by one gossip
// interaction).
func waitRingAgreement(t *testing.T, nodes []*cluster.Node) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		agree := true
	probe:
		for tenant := uint32(0); tenant < 16; tenant++ {
			want := nodes[0].Owner(tenant)
			for _, nd := range nodes[1:] {
				if nd.Owner(tenant) != want {
					agree = false
					break probe
				}
			}
		}
		if agree {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("rings did not agree")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tenantOwnedBy returns a tenant the ring places on owner.
func tenantOwnedBy(t *testing.T, nd *cluster.Node, owner string) uint32 {
	t.Helper()
	for tenant := uint32(1); tenant < 1<<17; tenant++ {
		if nd.Owner(tenant) == owner {
			return tenant
		}
	}
	t.Fatalf("no tenant maps to %s", owner)
	return 0
}

// cclient is a minimal protocol client for manual cluster sessions.
type cclient struct {
	t    *testing.T
	conn net.Conn
	fw   *wire.Writer
	fr   *wire.Reader
}

func dialNode(t *testing.T, addr string) *cclient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &cclient{t: t, conn: conn, fw: wire.NewWriter(conn), fr: wire.NewReader(conn, 8<<20)}
}

func (c *cclient) send(f wire.Frame) {
	c.t.Helper()
	if err := c.fw.Write(f); err != nil {
		c.t.Fatalf("send %s: %v", f.Type, err)
	}
	if err := c.fw.Flush(); err != nil {
		c.t.Fatalf("flush: %v", err)
	}
}

func (c *cclient) next() wire.Frame {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	f, err := c.fr.Next()
	if err != nil {
		c.t.Fatalf("next frame: %v", err)
	}
	return f
}

// serveDedup runs one owned session: chunks as individual requests, TEnd,
// reassembled archive back. Any verdict other than TResult fails the test.
func (c *cclient) serveDedup(tenant uint32, chunks ...[]byte) []byte {
	c.t.Helper()
	var archive bytes.Buffer
	for i, chunk := range chunks {
		c.send(wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: tenant, Seq: uint64(i), Payload: chunk})
		v := c.next()
		if v.Type != wire.TResult || v.Seq != uint64(i) {
			c.t.Fatalf("request %d: got %s seq %d", i, v.Type, v.Seq)
		}
		archive.Write(v.Payload)
	}
	c.send(wire.Frame{Type: wire.TEnd})
	for {
		f, err := c.fr.Next()
		if err == io.EOF {
			return archive.Bytes()
		}
		if err != nil {
			c.t.Fatalf("awaiting end: %v", err)
		}
		archive.Write(f.Payload)
		if f.Type == wire.TEnd {
			return archive.Bytes()
		}
	}
}

func restore(t *testing.T, archive []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := dedup.Restore(bytes.NewReader(archive), &out); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return out.Bytes()
}

// TestRedirectVerdict: a node answers a TData for a tenant it does not own
// with TRedirect carrying the owner's address, and the owner then serves the
// session to a correct archive.
func TestRedirectVerdict(t *testing.T) {
	testutil.CheckLeaks(t)
	nodes, _ := startCluster(t, 2, nil)
	owner := nodes[1].Addr()
	tenant := tenantOwnedBy(t, nodes[0], owner)
	payload := workload.Generate(workload.Spec{Kind: workload.Large, Size: 32 << 10, Seed: 5})

	c := dialNode(t, nodes[0].Addr())
	c.send(wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: tenant, Seq: 0, Payload: payload})
	v := c.next()
	if v.Type != wire.TRedirect || v.Seq != 0 {
		t.Fatalf("got %s seq %d, want redirect seq 0", v.Type, v.Seq)
	}
	retryAfter, addr := wire.ParseRedirectInfo(v.Payload)
	if addr != owner {
		t.Fatalf("redirect to %q, want %q", addr, owner)
	}
	if retryAfter <= 0 {
		t.Fatal("redirect carries no retry-after hint")
	}

	oc := dialNode(t, addr)
	archive := oc.serveDedup(tenant, payload)
	if !bytes.Equal(restore(t, archive), payload) {
		t.Fatal("owner-served archive does not restore to the input")
	}
}

// TestClusterPayloadCap: the node's router reads a session's frames with the
// embedded server's own payload cap, so a request the server accepts
// standalone (here 1.5 MiB under a 2 MiB batch, above the wire's 1 MiB
// default) is served through the cluster too.
func TestClusterPayloadCap(t *testing.T) {
	testutil.CheckLeaks(t)
	nodes, _ := startCluster(t, 1, func(_ int, cfg *cluster.Config) {
		cfg.Server.BatchSize = 2 << 20
	})
	payload := workload.Generate(workload.Spec{Kind: workload.Large, Size: 3 << 19, Seed: 9})
	c := dialNode(t, nodes[0].Addr())
	archive := c.serveDedup(1, payload)
	if !bytes.Equal(restore(t, archive), payload) {
		t.Fatal("cluster-served archive does not restore to the input")
	}
}

// TestClusterRouting: loadgen against the full node list completes every
// session with verified restores, and the per-node breakdown accounts for
// all accepted traffic.
func TestClusterRouting(t *testing.T) {
	testutil.CheckLeaks(t)
	nodes, _ := startCluster(t, 3, nil)
	addrs := []string{nodes[0].Addr(), nodes[1].Addr(), nodes[2].Addr()}

	rep, err := loadgen.Run(loadgen.Config{
		Addrs:    addrs,
		Clients:  6,
		Requests: 10,
		Tenants:  6,
		MinBytes: 1 << 10,
		MaxBytes: 8 << 10,
		Seed:     7,
		Retries:  4,
		Verify:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RestoreFailures != 0 {
		t.Fatalf("%d restore failures: %v", rep.RestoreFailures, rep.Errors)
	}
	if want := int64(6 * 10); rep.Accepted != want {
		t.Fatalf("accepted %d, want %d", rep.Accepted, want)
	}
	var sum int64
	for _, nr := range rep.Nodes {
		sum += nr.Accepted
	}
	if sum != rep.Accepted {
		t.Fatalf("per-node accepted %d does not sum to total %d", sum, rep.Accepted)
	}
}

// TestLoadgenFollowsRedirect: a client that dials the wrong node follows the
// TRedirect verdict to the owner. The two-address list with one tenant makes
// the first client's initial dial a guaranteed miss.
func TestLoadgenFollowsRedirect(t *testing.T) {
	testutil.CheckLeaks(t)
	nodes, _ := startCluster(t, 2, nil)
	owner := nodes[1].Addr()
	tenant := tenantOwnedBy(t, nodes[0], owner)

	rep, err := loadgen.Run(loadgen.Config{
		Addrs:       []string{nodes[0].Addr(), owner},
		Clients:     2,
		Requests:    6,
		Tenants:     1,
		FirstTenant: tenant,
		Seed:        11,
		Retries:     4,
		Verify:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RestoreFailures != 0 {
		t.Fatalf("%d restore failures: %v", rep.RestoreFailures, rep.Errors)
	}
	if rep.Accepted != 12 {
		t.Fatalf("accepted %d, want 12", rep.Accepted)
	}
	if rep.Redirects == 0 {
		t.Fatal("client dialed a non-owner yet followed no redirect")
	}
}

// TestClusterWideDedup is the acceptance scenario: a block uploaded through
// node A is recognized as already seen when re-sent through node B. The two
// archives are byte-identical (the session writer, not the cluster store,
// decides archive contents) and both restore to the input — which also
// matches what sequential CompressSeq restores to.
func TestClusterWideDedup(t *testing.T) {
	testutil.CheckLeaks(t)
	nodes, _ := startCluster(t, 2, nil)
	addrA, addrB := nodes[0].Addr(), nodes[1].Addr()
	tenantA := tenantOwnedBy(t, nodes[0], addrA)
	tenantB := tenantOwnedBy(t, nodes[0], addrB)

	data := workload.Generate(workload.Spec{Kind: workload.Large, Size: 256 << 10, Seed: 21})
	var chunks [][]byte
	for rest := data; len(rest) > 0; {
		n := 48 << 10
		if n > len(rest) {
			n = len(rest)
		}
		chunks = append(chunks, rest[:n])
		rest = rest[n:]
	}

	var seq bytes.Buffer
	if _, err := dedup.CompressSeq(data, &seq, dedup.Options{}); err != nil {
		t.Fatal(err)
	}
	want := restore(t, seq.Bytes())
	if !bytes.Equal(want, data) {
		t.Fatal("CompressSeq does not round-trip (broken baseline)")
	}

	ca := dialNode(t, addrA)
	archiveA := ca.serveDedup(tenantA, chunks...)
	cb := dialNode(t, addrB)
	archiveB := cb.serveDedup(tenantB, chunks...)

	if !bytes.Equal(archiveA, archiveB) {
		t.Fatal("same stream served via two nodes produced different archives")
	}
	if got := restore(t, archiveA); !bytes.Equal(got, want) {
		t.Fatal("cluster-served archive does not restore to the CompressSeq baseline")
	}
	hits := nodes[0].StoreRef().RemoteHits() + nodes[1].StoreRef().RemoteHits()
	if hits == 0 {
		t.Fatal("re-sending the stream via node B scored no cluster-wide dedup hits")
	}
}

// TestNodeFaultKill: the node-granularity fault injector (internal/fault's
// KillAfterOps) crashes a member, and the survivors' failure detectors
// converge on its death.
func TestNodeFaultKill(t *testing.T) {
	testutil.CheckLeaks(t)
	nodes, _ := startCluster(t, 3, func(i int, cfg *cluster.Config) {
		if i == 2 {
			cfg.Faults = fault.Config{Seed: 9, KillAfterOps: 20}
		}
	})
	waitMembers(t, nodes[:2], 2)
	for _, nd := range nodes[:2] {
		for _, m := range nd.Members() {
			if m == nodes[2].Addr() {
				t.Fatalf("%s still lists the dead node", nd.Addr())
			}
		}
	}
}

// TestClusterFailover kills a node mid-stream while loadgen drives verified
// sessions against the full cluster: every session must complete on the
// survivors with clean restores, at least one client must have failed over
// a severed connection, and the survivors must agree the node is gone. The
// kill is timed by an event — the doomed node has answered some of its
// tenant's requests, so clients are attached and mid-run — not by an
// operation count, which background gossip reaches before clients attach
// or after a fast run has finished. TestNodeFaultKill covers the
// injector's kill.
func TestClusterFailover(t *testing.T) {
	testutil.CheckLeaks(t)
	nodes, regs := startCluster(t, 3, nil)
	addrs := []string{nodes[0].Addr(), nodes[1].Addr(), nodes[2].Addr()}
	// Anchor the tenant range so the doomed node owns the first tenant:
	// clients on that tenant are connected to it when it dies.
	tenant := tenantOwnedBy(t, nodes[0], nodes[2].Addr())
	served := regs[2].Counter("server_requests_total", telemetry.Labels{
		"svc": "dedup", "tenant": strconv.FormatUint(uint64(tenant), 10),
		"verdict": "accepted", "reason": "none"})

	type result struct {
		rep loadgen.Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := loadgen.Run(loadgen.Config{
			Addrs:       addrs,
			Clients:     8,
			Requests:    200,
			Tenants:     3,
			FirstTenant: tenant,
			MinBytes:    1 << 10,
			MaxBytes:    4 << 10,
			Seed:        17,
			Retries:     6,
			Verify:      true,
		})
		done <- result{rep, err}
	}()
	for served.Value() < 10 {
		select {
		case res := <-done:
			t.Fatalf("the run ended (err %v) after %d of the doomed node's requests, before the kill",
				res.err, served.Value())
		case <-time.After(time.Millisecond):
		}
	}
	nodes[2].Kill()
	res := <-done
	rep, err := res.rep, res.err
	if err != nil {
		t.Fatal(err)
	}
	if rep.RestoreFailures != 0 {
		t.Fatalf("%d restore failures after node kill: %v", rep.RestoreFailures, rep.Errors)
	}
	if want := int64(8 * 200); rep.Accepted != want {
		t.Fatalf("accepted %d, want %d", rep.Accepted, want)
	}
	if rep.Failovers == 0 {
		t.Fatal("node died mid-run but no client failed over")
	}
	waitMembers(t, nodes[:2], 2)
}
