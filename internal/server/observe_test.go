package server

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"streamgpu/internal/server/wire"
)

// resultWatch is the server side of a session's connection. Every TResult
// frame the sink writes is the first moment the client can see that result,
// and a client may offer its next request right then — so by that moment
// the deadline estimator must already hold the result's service-time
// sample. Each Write is one flushed frame (the session flushes per frame).
type resultWatch struct {
	net.Conn
	t       *testing.T
	s       *Server
	mu      sync.Mutex
	results map[wire.Svc]int64
}

func (w *resultWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	for rest := p; len(rest) > 0; {
		f, n, err := wire.Decode(rest)
		if err != nil {
			w.t.Errorf("server wrote a partial frame: %v", err)
			break
		}
		if f.Type == wire.TResult {
			w.results[f.Svc]++
			if got := w.s.est.hists[f.Svc].Count(); got < w.results[f.Svc] {
				w.t.Errorf("%s result %d reached the client with %d estimator samples", f.Svc, w.results[f.Svc], got)
			}
		}
		rest = rest[n:]
	}
	w.mu.Unlock()
	return w.Conn.Write(p)
}

// TestResultFollowsObserve is the regression test for the result-before-
// observe race: the sinks used to send a TResult before recording its
// service time and releasing its admission slot, so a fast client's next
// request could be admitted against an empty estimator and a stale inflight
// count (TestDeadlineReject's flake). It fails on every result when the
// order is reversed.
func TestResultFollowsObserve(t *testing.T) {
	s := New(Config{Linger: time.Minute})
	srvEnd, cliEnd := net.Pipe()
	served := make(chan bool, 1)
	go func() {
		served <- s.ServeConn(&resultWatch{Conn: srvEnd, t: t, s: s, results: map[wire.Svc]int64{}})
	}()
	fw, fr := wire.NewWriter(cliEnd), wire.NewReader(cliEnd, 0)
	next := func() wire.Frame {
		t.Helper()
		cliEnd.SetReadDeadline(time.Now().Add(30 * time.Second))
		f, err := fr.Next()
		if err != nil {
			t.Fatalf("next frame: %v", err)
		}
		return f
	}
	write := func(f wire.Frame) {
		t.Helper()
		err := fw.Write(f)
		if err == nil {
			err = fw.Flush()
		}
		if err != nil {
			t.Fatalf("send %s: %v", f.Type, err)
		}
	}
	payload := bytes.Repeat([]byte("observe"), 64)
	mreq := AppendMandelReq(nil, MandelReq{Dim: 64, Niter: 32, Row0: 3, NRows: 4})
	const rounds = 20
	for i := uint64(0); i < rounds; i++ {
		write(wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: 2 * i, Payload: payload})
		write(wire.Frame{Type: wire.TFlush})
		if f := next(); f.Type != wire.TResult || f.Seq != 2*i {
			t.Fatalf("dedup request %d got %s (seq %d), want its result", 2*i, f.Type, f.Seq)
		}
		write(wire.Frame{Type: wire.TData, Svc: wire.SvcMandel, Tenant: 1, Seq: 2*i + 1, Payload: mreq})
		if f := next(); f.Type != wire.TResult || f.Seq != 2*i+1 {
			t.Fatalf("mandel request %d got %s (seq %d), want its result", 2*i+1, f.Type, f.Seq)
		}
	}
	write(wire.Frame{Type: wire.TEnd})
	for f := next(); f.Type != wire.TEnd; f = next() {
	}
	cliEnd.Close()
	<-served
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
