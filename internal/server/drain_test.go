package server_test

import (
	"context"
	"errors"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamgpu/internal/server"
	"streamgpu/internal/server/wire"
	"streamgpu/internal/telemetry"
	"streamgpu/internal/testutil"
)

// closeConn records whether the server side of a connection was closed.
type closeConn struct {
	net.Conn
	closed atomic.Bool
}

func (c *closeConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// TestServeConnRacesShutdown: a session ServeConn admits is one a
// concurrent graceful Shutdown waits for. A session closes its connection
// just before it leaves the drain's wait group, so every ServeConn that
// reports true must have closed its connection by the time Shutdown
// returns.
func TestServeConnRacesShutdown(t *testing.T) {
	testutil.CheckLeaks(t)
	srv := server.New(server.Config{Workers: 1})
	srv.Start()

	const n = 8
	conns := make([]*closeConn, n)
	served := make([]bool, n)
	var wg sync.WaitGroup
	for i := range conns {
		cli, side := net.Pipe()
		conns[i] = &closeConn{Conn: side}
		wg.Add(2)
		go func() {
			defer wg.Done()
			// Staggered arrivals: some sessions register before the drain
			// starts, some after, and some as it starts.
			time.Sleep(time.Duration(i) * 20 * time.Microsecond)
			served[i] = srv.ServeConn(conns[i])
		}()
		go func() {
			// The client ends its stream at once and reads to EOF; a
			// connection closed unserved fails the write, and the read.
			defer wg.Done()
			defer cli.Close()
			fw := wire.NewWriter(cli)
			if fw.Write(wire.Frame{Type: wire.TEnd}) == nil && fw.Flush() == nil {
				io.Copy(io.Discard, cli)
			}
		}()
	}

	time.Sleep(n / 2 * 20 * time.Microsecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	closedAtShutdown := make([]bool, n)
	for i, c := range conns {
		closedAtShutdown[i] = c.closed.Load()
	}
	wg.Wait()
	nserved := 0
	for _, ok := range served {
		if ok {
			nserved++
		}
	}
	t.Logf("%d of %d connections served", nserved, n)
	for i := range conns {
		if served[i] && !closedAtShutdown[i] {
			t.Errorf("ServeConn %d served a session that was still running when Shutdown returned", i)
		}
	}
}

// TestShutdownForcedDrain: a Shutdown whose ctx expires while heavy mandel
// requests of two tenants are still queued behind one compute replica
// returns the ctx error promptly, ends Serve, disconnects every client and
// leaves no goroutine behind; a second Shutdown returns at once.
func TestShutdownForcedDrain(t *testing.T) {
	testutil.CheckLeaks(t)
	reg := telemetry.New()
	srv := server.New(server.Config{Workers: 1, Metrics: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	const tenants, perTenant = 2, 8
	// Rows through the middle of the set, where most pixels run every
	// iteration: each request is tens of milliseconds of compute.
	req := server.AppendMandelReq(nil, server.MandelReq{Dim: 512, Niter: 5000, Row0: 224, NRows: 64})
	var clients []*client
	for tenant := uint32(1); tenant <= tenants; tenant++ {
		c := dialClient(t, ln.Addr().String())
		for seq := uint64(0); seq < perTenant; seq++ {
			c.send(wire.Frame{Type: wire.TData, Svc: wire.SvcMandel, Tenant: tenant, Seq: seq, Payload: req})
		}
		clients = append(clients, c)
	}
	accepted := func() int64 {
		var sum int64
		for tenant := 1; tenant <= tenants; tenant++ {
			sum += reg.Counter("server_requests_total", telemetry.Labels{
				"svc": "mandel", "tenant": strconv.Itoa(tenant), "verdict": "accepted", "reason": "none",
			}).Value()
		}
		return sum
	}
	for wait := time.Now().Add(10 * time.Second); accepted() < tenants*perTenant; {
		if time.Now().After(wait) {
			t.Fatalf("%d of %d requests admitted", accepted(), tenants*perTenant)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want %v", err, context.DeadlineExceeded)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("forced Shutdown took %v", d)
	}
	select {
	case err := <-serveErr:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Serve = %v, want %v", err, context.DeadlineExceeded)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	for i, c := range clients {
		c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			_, err := c.fr.Next()
			if err == nil {
				continue // a result that made it out before the cancel
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("client %d: connection still open after Shutdown", i)
			}
			break
		}
	}

	again, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	start = time.Now()
	if err := srv.Shutdown(again); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second Shutdown = %v, want the first one's %v", err, context.DeadlineExceeded)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("second Shutdown took %v", d)
	}
}
