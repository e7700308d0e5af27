package server_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"streamgpu/internal/dedup"
	"streamgpu/internal/fault"
	"streamgpu/internal/mandel"
	"streamgpu/internal/server"
	"streamgpu/internal/server/wire"
	"streamgpu/internal/telemetry"
	"streamgpu/internal/testutil"
	"streamgpu/internal/workload"
)

func TestMain(m *testing.M) { testutil.Main(m) }

// startServer runs srv on an ephemeral port and registers a graceful
// shutdown cleanup; it returns the dial address.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// client is a minimal test-side protocol client.
type client struct {
	t    *testing.T
	conn net.Conn
	fw   *wire.Writer
	fr   *wire.Reader
}

func dialClient(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{t: t, conn: conn, fw: wire.NewWriter(conn), fr: wire.NewReader(conn, 8<<20)}
}

// send writes frames back to back and flushes once, so several frames
// reach the server in one write: each but the last is read while the next
// one's bytes are already in hand.
func (c *client) send(fs ...wire.Frame) {
	c.t.Helper()
	for _, f := range fs {
		if err := c.fw.Write(f); err != nil {
			c.t.Fatalf("send %s: %v", f.Type, err)
		}
	}
	if err := c.fw.Flush(); err != nil {
		c.t.Fatalf("flush: %v", err)
	}
}

func (c *client) next() wire.Frame {
	c.t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	f, err := c.fr.Next()
	if err != nil {
		c.t.Fatalf("next frame: %v", err)
	}
	return f
}

// serveDedup pushes chunks as individual requests, ends the stream, and
// returns the reassembled archive. It fails on any TReject.
func (c *client) serveDedup(chunks ...[]byte) []byte {
	c.t.Helper()
	var archive bytes.Buffer
	for i, chunk := range chunks {
		c.send(wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: uint64(i), Payload: chunk})
		v := c.next()
		switch v.Type {
		case wire.TResult:
			if v.Seq != uint64(i) {
				c.t.Fatalf("result for seq %d, want %d", v.Seq, i)
			}
			archive.Write(v.Payload)
		default:
			c.t.Fatalf("request %d: unexpected %s", i, v.Type)
		}
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

func restoreArchive(t *testing.T, archive []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := dedup.Restore(bytes.NewReader(archive), &out); err != nil {
		t.Fatalf("restore: %v", err)
	}
	return out.Bytes()
}

func TestServeDedupEndToEnd(t *testing.T) {
	testutil.CheckLeaks(t)
	_, addr := startServer(t, server.Config{Linger: time.Millisecond})
	data := workload.Generate(workload.Spec{Kind: workload.Linux, Size: 300 << 10, Seed: 5})
	c := dialClient(t, addr)
	archive := c.serveDedup(data[:100<<10], data[100<<10:180<<10], data[180<<10:])
	if got := restoreArchive(t, archive); !bytes.Equal(got, data) {
		t.Fatalf("restored %d bytes != sent %d bytes", len(got), len(data))
	}
}

// TestAdmissionReject: with a one-request window and a long linger, the
// first request holds the window open (both frames arrive in one write, so
// the second is in hand when the first is staged, and the first's batch
// stays staged), so the second is fast-failed with TReject — and a client
// flush then completes the first normally.
func TestAdmissionReject(t *testing.T) {
	testutil.CheckLeaks(t)
	_, addr := startServer(t, server.Config{MaxInflight: 1, Linger: time.Minute})
	c := dialClient(t, addr)
	payload := bytes.Repeat([]byte("req"), 100)
	c.send(wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: 0, Payload: payload},
		wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: 1, Payload: payload})

	f := c.next()
	if f.Type != wire.TReject || f.Seq != 1 {
		t.Fatalf("second request got %s (seq %d), want reject of seq 1", f.Type, f.Seq)
	}
	c.send(wire.Frame{Type: wire.TFlush})
	f = c.next()
	if f.Type != wire.TResult || f.Seq != 0 {
		t.Fatalf("after flush got %s (seq %d), want result for seq 0", f.Type, f.Seq)
	}
	archive := append(append([]byte(nil), f.Payload...), finishStream(c)...)
	if got := restoreArchive(t, archive); !bytes.Equal(got, payload) {
		t.Fatal("restored bytes != accepted payload")
	}
}

// finishStream ends the stream and returns any residual archive bytes.
func finishStream(c *client) []byte {
	c.t.Helper()
	c.send(wire.Frame{Type: wire.TEnd})
	var tail bytes.Buffer
	for {
		f, err := c.fr.Next()
		if err == io.EOF {
			return tail.Bytes()
		}
		if err != nil {
			c.t.Fatalf("awaiting end: %v", err)
		}
		tail.Write(f.Payload)
		if f.Type == wire.TEnd {
			return tail.Bytes()
		}
	}
}

// TestShutdownDeliversInflight: results for accepted requests arrive even
// when the server (not the client) initiates the drain.
func TestShutdownDeliversInflight(t *testing.T) {
	testutil.CheckLeaks(t)
	srv := server.New(server.Config{Linger: time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	c := dialClient(t, ln.Addr().String())
	data := workload.Generate(workload.Spec{Kind: workload.Silesia, Size: 64 << 10, Seed: 9})
	c.send(wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: 0, Payload: data})
	v := c.next()
	if v.Type != wire.TResult {
		t.Fatalf("got %s, want result", v.Type)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if got := restoreArchive(t, v.Payload); !bytes.Equal(got, data) {
		t.Fatal("restored bytes != sent bytes")
	}
}

// TestMetamorphicSplit is the property test: however a byte stream is split
// into requests, serving the pieces restores to the same bytes — and to the
// same restore CompressSeq produces for the concatenated whole.
func TestMetamorphicSplit(t *testing.T) {
	testutil.CheckLeaks(t)
	_, addr := startServer(t, server.Config{Linger: time.Millisecond})
	rng := rand.New(rand.NewSource(31))
	data := workload.Generate(workload.Spec{Kind: workload.Large, Size: 256 << 10, Seed: 13})

	var seqArchive bytes.Buffer
	if _, err := dedup.CompressSeq(data, &seqArchive, dedup.Options{}); err != nil {
		t.Fatal(err)
	}
	want := restoreArchive(t, seqArchive.Bytes())
	if !bytes.Equal(want, data) {
		t.Fatal("CompressSeq does not round-trip (broken baseline)")
	}

	for trial := 0; trial < 3; trial++ {
		var chunks [][]byte
		for rest := data; len(rest) > 0; {
			n := 1 + rng.Intn(64<<10)
			if n > len(rest) {
				n = len(rest)
			}
			chunks = append(chunks, rest[:n])
			rest = rest[n:]
		}
		c := dialClient(t, addr)
		got := restoreArchive(t, c.serveDedup(chunks...))
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (%d chunks): served restore differs from CompressSeq restore", trial, len(chunks))
		}
	}
}

// TestGPUFaultsRestore: the per-batch GPU path with aggressive fault
// injection must still produce a correct archive (retry + CPU degradation).
func TestGPUFaultsRestore(t *testing.T) {
	testutil.CheckLeaks(t)
	_, addr := startServer(t, server.Config{
		Linger: time.Millisecond,
		GPU:    true,
		Faults: fault.Config{Seed: 42, TransferRate: 0.05, KernelRate: 0.05},
	})
	data := workload.Generate(workload.Spec{Kind: workload.Linux, Size: 400 << 10, Seed: 21})
	c := dialClient(t, addr)
	archive := c.serveDedup(data[:150<<10], data[150<<10:300<<10], data[300<<10:])
	if got := restoreArchive(t, archive); !bytes.Equal(got, data) {
		t.Fatal("GPU+faults restore differs from sent bytes")
	}
}

func TestMandelService(t *testing.T) {
	testutil.CheckLeaks(t)
	_, addr := startServer(t, server.Config{})
	c := dialClient(t, addr)
	const dim, niter = 64, 100
	req := server.AppendMandelReq(nil, server.MandelReq{Dim: dim, Niter: niter, Row0: 10, NRows: 4})
	c.send(wire.Frame{Type: wire.TData, Svc: wire.SvcMandel, Tenant: 2, Seq: 7, Payload: req})
	f := c.next()
	if f.Type != wire.TResult || f.Seq != 7 {
		t.Fatalf("got %s (seq %d), want result for 7", f.Type, f.Seq)
	}
	if len(f.Payload) != 4*dim {
		t.Fatalf("payload %d bytes, want %d", len(f.Payload), 4*dim)
	}
	p := mandel.Params{Dim: dim, Niter: niter, InitA: -2.0, InitB: -1.25, Range: 2.5}
	row := make([]byte, dim)
	for r := 0; r < 4; r++ {
		for j := range row {
			row[j] = p.Color(p.Pixel(10+r, j))
		}
		if !bytes.Equal(f.Payload[r*dim:(r+1)*dim], row) {
			t.Fatalf("row %d differs from the scalar reference", 10+r)
		}
	}
	finishStream(c)
}

func TestMandelBadRequestFails(t *testing.T) {
	testutil.CheckLeaks(t)
	_, addr := startServer(t, server.Config{})
	c := dialClient(t, addr)
	c.send(wire.Frame{Type: wire.TData, Svc: wire.SvcMandel, Tenant: 2, Seq: 0, Payload: []byte{0, 0}})
	f := c.next()
	if f.Type != wire.TError {
		t.Fatalf("got %s, want error", f.Type)
	}
}

func TestMetricsExposition(t *testing.T) {
	testutil.CheckLeaks(t)
	reg := telemetry.New()
	_, addr := startServer(t, server.Config{Linger: time.Millisecond, Metrics: reg})
	c := dialClient(t, addr)
	data := workload.Generate(workload.Spec{Kind: workload.Silesia, Size: 32 << 10, Seed: 3})
	c.serveDedup(data)

	var prom strings.Builder
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, want := range []string{
		`server_requests_total{reason="none",svc="dedup",tenant="1",verdict="accepted"}`,
		`server_request_bytes_total{svc="dedup",tenant="1"}`,
		`server_response_bytes_total{svc="dedup",tenant="1"}`,
		`server_service_seconds`,
		`server_batches_sealed_total`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom exposition missing %s", want)
		}
	}
}
