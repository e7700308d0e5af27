package server_test

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"streamgpu/internal/pool"
	"streamgpu/internal/server"
	"streamgpu/internal/server/wire"
	"streamgpu/internal/telemetry"
	"streamgpu/internal/testutil"
	"streamgpu/internal/workload"
)

// sealed reads server_batches_sealed_total for one trigger.
func sealed(reg *telemetry.Registry, trigger string) int64 {
	return reg.Counter("server_batches_sealed_total", telemetry.Labels{"trigger": trigger}).Value()
}

// nextWithin reads one frame, failing the test if none arrives within d.
func (c *client) nextWithin(d time.Duration) wire.Frame {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(d))
	f, err := c.fr.Next()
	if err != nil {
		c.t.Fatalf("no frame within %v: %v", d, err)
	}
	return f
}

// TestIdleSeal: a lone request is sealed as soon as it is read, because no
// byte of a later frame is in hand. It is answered without a flush, long
// before a one-minute linger.
func TestIdleSeal(t *testing.T) {
	testutil.CheckLeaks(t)
	reg := telemetry.New()
	_, addr := startServer(t, server.Config{Linger: time.Minute, Metrics: reg})
	c := dialClient(t, addr)
	payload := workload.Generate(workload.Spec{Kind: workload.Silesia, Size: 4 << 10, Seed: 2})
	c.send(wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: 0, Payload: payload})
	f := c.nextWithin(5 * time.Second)
	if f.Type != wire.TResult || f.Seq != 0 {
		t.Fatalf("got %s (seq %d), want result for seq 0", f.Type, f.Seq)
	}
	if n := sealed(reg, "idle"); n != 1 {
		t.Errorf("idle seals = %d, want 1", n)
	}
	archive := append(append([]byte(nil), f.Payload...), finishStream(c)...)
	if got := restoreArchive(t, archive); !bytes.Equal(got, payload) {
		t.Fatal("restored bytes != sent payload")
	}
}

// TestArrivingFramesCoalesce: requests sent in one write are sealed
// together, into fewer batches than requests, with no linger expiry. Small
// frames are staged while later frames are in the reader's buffer; a frame
// longer than the buffer is read past it, so its successors are staged
// because the batch before them is still being served.
func TestArrivingFramesCoalesce(t *testing.T) {
	for _, tc := range []struct{ n, size int }{{8, 4 << 10}, {4, 256 << 10}} {
		t.Run(fmt.Sprintf("%dx%dKiB", tc.n, tc.size>>10), func(t *testing.T) {
			testutil.CheckLeaks(t)
			reg := telemetry.New()
			_, addr := startServer(t, server.Config{Linger: time.Minute, Metrics: reg})
			c := dialClient(t, addr)
			data := workload.Generate(workload.Spec{Kind: workload.Silesia, Size: tc.n * tc.size, Seed: 6})
			frames := make([]wire.Frame, tc.n)
			for i := range frames {
				frames[i] = wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: uint64(i), Payload: data[i*tc.size : (i+1)*tc.size]}
			}
			c.send(frames...)
			checkCoalesced(t, reg, c, data, tc.n, tc.n-1)
		})
	}
}

// TestFramesBehindServedBatchCoalesce: requests that arrive while the
// session's batch is being served are staged and sealed together when it is
// written. Over net.Pipe each follower frame is its own write, read alone,
// and the sink cannot finish the first batch until the client reads its
// result, which the client does only after writing every follower. A
// client pipelining small requests gets batches, not one per request, and
// no request waits for the linger.
func TestFramesBehindServedBatchCoalesce(t *testing.T) {
	testutil.CheckLeaks(t)
	reg := telemetry.New()
	srv, _ := startServer(t, server.Config{Linger: time.Minute, Metrics: reg})
	cli, conn := net.Pipe()
	t.Cleanup(func() { cli.Close() })
	served := make(chan bool, 1)
	go func() { served <- srv.ServeConn(conn) }()
	c := &client{t: t, conn: cli, fw: wire.NewWriter(cli), fr: wire.NewReader(cli, 8<<20)}
	const n, size = 8, 4 << 10
	data := workload.Generate(workload.Spec{Kind: workload.Silesia, Size: n * size, Seed: 10})
	for i := 0; i < n; i++ {
		c.send(wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: uint64(i), Payload: data[i*size : (i+1)*size]})
	}
	// The first request is sealed alone; at most the last follower can miss
	// the second batch, if it is staged only after the first is written.
	checkCoalesced(t, reg, c, data, n, 3)
	if !<-served {
		t.Error("ServeConn did not serve the session")
	}
}

// checkCoalesced reads the results of requests 0..n-1 in order, requires
// them to have been sealed into at most most batches, and restores the
// session's archive to data.
func checkCoalesced(t *testing.T, reg *telemetry.Registry, c *client, data []byte, n, most int) {
	t.Helper()
	var archive []byte
	for i := 0; i < n; i++ {
		f := c.nextWithin(5 * time.Second)
		if f.Type != wire.TResult || f.Seq != uint64(i) {
			t.Fatalf("got %s (seq %d), want result for seq %d", f.Type, f.Seq, i)
		}
		archive = append(archive, f.Payload...)
	}
	var batches int64
	for _, trigger := range []string{"full", "idle", "linger", "flush", "end"} {
		batches += sealed(reg, trigger)
	}
	t.Logf("%d requests sealed into %d batches", n, batches)
	if batches > int64(most) {
		t.Errorf("%d requests sealed into %d batches, want at most %d", n, batches, most)
	}
	archive = append(archive, finishStream(c)...)
	if got := restoreArchive(t, archive); !bytes.Equal(got, data) {
		t.Fatal("restored bytes != sent bytes")
	}
}

// TestLingerBoundsSlowFrame: a complete request followed by only the first
// bytes of the next stays staged, since more of the session is arriving;
// when the rest stalls, the linger seals it.
func TestLingerBoundsSlowFrame(t *testing.T) {
	testutil.CheckLeaks(t)
	reg := telemetry.New()
	_, addr := startServer(t, server.Config{Linger: 20 * time.Millisecond, Metrics: reg})
	c := dialClient(t, addr)
	data := workload.Generate(workload.Spec{Kind: workload.Silesia, Size: 2 << 10, Seed: 8})
	first := wire.Append(nil, wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: 0, Payload: data[:1<<10]})
	second := wire.Append(nil, wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: 1, Payload: data[1<<10:]})
	const head = 10
	if _, err := c.conn.Write(append(first, second[:head]...)); err != nil {
		t.Fatal(err)
	}
	f := c.nextWithin(5 * time.Second)
	if f.Type != wire.TResult || f.Seq != 0 {
		t.Fatalf("got %s (seq %d), want result for seq 0", f.Type, f.Seq)
	}
	if n := sealed(reg, "linger"); n != 1 {
		t.Errorf("linger seals = %d, want 1 (idle seals: %d)", n, sealed(reg, "idle"))
	}
	archive := append([]byte(nil), f.Payload...)
	if _, err := c.conn.Write(second[head:]); err != nil {
		t.Fatal(err)
	}
	if f = c.nextWithin(5 * time.Second); f.Type != wire.TResult || f.Seq != 1 {
		t.Fatalf("got %s (seq %d), want result for seq 1", f.Type, f.Seq)
	}
	archive = append(append(archive, f.Payload...), finishStream(c)...)
	if got := restoreArchive(t, archive); !bytes.Equal(got, data) {
		t.Fatal("restored bytes != sent bytes")
	}
}

// TestServedRequestAllocs pins the heap allocations of one warm 32 KiB
// dedup request, one batch per request, counted over the whole process:
// the client's encode and decode, the session's read loop, the coalescer,
// the pipeline and the sink. It reads about 5, most of them the session
// store's map growth; the pipeline's farm allocates nothing per item.
func TestServedRequestAllocs(t *testing.T) {
	if pool.RaceEnabled {
		t.Skip("allocation counting is unreliable under -race")
	}
	testutil.CheckLeaks(t)
	_, addr := startServer(t, server.Config{})
	c := dialClient(t, addr)
	const warm, n, size = 64, 64, 32 << 10
	data := workload.Generate(workload.Spec{Kind: workload.Silesia, Size: (warm + n) * size, Seed: 4})
	archive := bytes.NewBuffer(make([]byte, 0, 2*len(data)))
	request := func(i int) {
		c.send(wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: uint64(i), Payload: data[i*size : (i+1)*size]})
		f := c.next()
		if f.Type != wire.TResult || f.Seq != uint64(i) {
			t.Fatalf("got %s (seq %d), want result for seq %d", f.Type, f.Seq, i)
		}
		archive.Write(f.Payload)
	}
	for i := 0; i < warm; i++ {
		request(i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := warm; i < warm+n; i++ {
		request(i)
	}
	runtime.ReadMemStats(&m1)
	per := float64(m1.Mallocs-m0.Mallocs) / n
	t.Logf("%.1f mallocs per served request", per)
	if per > 7 {
		t.Errorf("%.1f mallocs per served request, want at most 7", per)
	}
	archive.Write(finishStream(c))
	if got := restoreArchive(t, archive.Bytes()); !bytes.Equal(got, data) {
		t.Fatal("restored bytes != sent bytes")
	}
}
