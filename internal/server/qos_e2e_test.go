package server_test

import (
	"bytes"
	"testing"
	"time"

	"streamgpu/internal/fault"
	"streamgpu/internal/gpu"
	"streamgpu/internal/health"
	"streamgpu/internal/server"
	"streamgpu/internal/server/qos"
	"streamgpu/internal/server/wire"
	"streamgpu/internal/testutil"
	"streamgpu/internal/workload"
)

// rejectInfo decodes a TReject frame's reason payload, failing the test on a
// frame of any other type.
func rejectInfo(t *testing.T, f wire.Frame) (wire.Reason, time.Duration) {
	t.Helper()
	if f.Type != wire.TReject {
		t.Fatalf("got %s, want reject", f.Type)
	}
	return wire.ParseRejectInfo(f.Payload)
}

// TestTenantThrottledReject: a tenant with a tiny rate contract exhausts its
// token bucket and is rejected with the tenant-throttled reason and a
// retry-after hint sized to the bucket's refill time — while an unlimited
// tenant on the same server is untouched.
func TestTenantThrottledReject(t *testing.T) {
	testutil.CheckLeaks(t)
	_, addr := startServer(t, server.Config{
		Linger: time.Millisecond,
		QoS: qos.Table{Tenants: map[uint32]qos.Spec{
			1: {Weight: 1, Rate: 100, Burst: 300},
		}},
	})
	c := dialClient(t, addr)
	payload := bytes.Repeat([]byte("x"), 300)

	c.send(wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: 0, Payload: payload})
	if f := c.next(); f.Type != wire.TResult || f.Seq != 0 {
		t.Fatalf("burst-sized request got %s (seq %d), want result", f.Type, f.Seq)
	}
	// The bucket is empty and refills at 100 B/s: the next 300-byte request
	// is throttled with a ~3s hint.
	c.send(wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: 1, Payload: payload})
	f := c.next()
	reason, retryAfter := rejectInfo(t, f)
	if reason != wire.ReasonThrottled {
		t.Fatalf("reason = %s, want %s", reason, wire.ReasonThrottled)
	}
	if retryAfter < time.Second || retryAfter > 5*time.Second {
		t.Fatalf("retry-after = %v, want ~3s", retryAfter)
	}
	// An unconfigured tenant is not rate limited.
	c.send(wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 2, Seq: 2, Payload: payload})
	if f := c.next(); f.Type != wire.TResult || f.Seq != 2 {
		t.Fatalf("unlimited tenant got %s (seq %d), want result", f.Type, f.Seq)
	}
	finishStream(c)
}

// TestDeadlineReject: once the service-time estimator has an observation and
// the window holds queued work, a request carrying a deadline smaller than
// the estimated queue wait is fast-failed with the deadline reason instead of
// being computed.
func TestDeadlineReject(t *testing.T) {
	testutil.CheckLeaks(t)
	_, addr := startServer(t, server.Config{Linger: time.Minute, MaxInflight: 16})
	c := dialClient(t, addr)
	payload := bytes.Repeat([]byte("warm"), 64)

	// Warm the estimator: a completed request gives it a service-time
	// sample (the p50 of anything real is astronomically above 1ns). A lone
	// request is sealed as soon as it is read.
	c.send(wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: 0, Payload: payload})
	if f := c.next(); f.Type != wire.TResult || f.Seq != 0 {
		t.Fatalf("warmup got %s (seq %d), want result", f.Type, f.Seq)
	}

	// Hold one request in the window (the next frame is in hand when it is
	// staged, and the long linger keeps it staged), then offer a request
	// that can only wait longer than its 1ns deadline.
	c.send(wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: 1, Payload: payload},
		wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: 2, Payload: payload, Deadline: time.Nanosecond})
	f := c.next()
	if f.Seq != 2 {
		t.Fatalf("got %s for seq %d, want reject of seq 2", f.Type, f.Seq)
	}
	if reason, _ := rejectInfo(t, f); reason != wire.ReasonDeadline {
		t.Fatalf("reason = %s, want %s", reason, wire.ReasonDeadline)
	}
	// The deadline-free request held by the window still completes.
	c.send(wire.Frame{Type: wire.TFlush})
	if f := c.next(); f.Type != wire.TResult || f.Seq != 1 {
		t.Fatalf("held request got %s (seq %d), want result", f.Type, f.Seq)
	}
	finishStream(c)
}

// TestDeadlineRejectMandel is TestDeadlineReject for the mandel service,
// whose requests reach their scheduler by their own path: a row request
// whose deadline is shorter than the estimated wait behind a held dedup
// request is fast-failed with the deadline reason.
func TestDeadlineRejectMandel(t *testing.T) {
	testutil.CheckLeaks(t)
	_, addr := startServer(t, server.Config{Linger: time.Minute, MaxInflight: 16})
	c := dialClient(t, addr)
	rows := server.AppendMandelReq(nil, server.MandelReq{Dim: 64, Niter: 100, Row0: 0, NRows: 4})
	payload := bytes.Repeat([]byte("held"), 64)

	// Warm the mandel estimator with one completed request.
	c.send(wire.Frame{Type: wire.TData, Svc: wire.SvcMandel, Tenant: 1, Seq: 0, Payload: rows})
	if f := c.next(); f.Type != wire.TResult || f.Seq != 0 {
		t.Fatalf("warmup got %s (seq %d), want result", f.Type, f.Seq)
	}

	// Hold a dedup request in the window, then offer a row request that can
	// only wait longer than its 1ns deadline.
	c.send(wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: 1, Payload: payload},
		wire.Frame{Type: wire.TData, Svc: wire.SvcMandel, Tenant: 1, Seq: 2, Payload: rows, Deadline: time.Nanosecond})
	f := c.next()
	if f.Seq != 2 {
		t.Fatalf("got %s for seq %d, want reject of seq 2", f.Type, f.Seq)
	}
	if reason, _ := rejectInfo(t, f); reason != wire.ReasonDeadline {
		t.Fatalf("reason = %s, want %s", reason, wire.ReasonDeadline)
	}
	c.send(wire.Frame{Type: wire.TFlush})
	if f := c.next(); f.Type != wire.TResult || f.Seq != 1 {
		t.Fatalf("held request got %s (seq %d), want result", f.Type, f.Seq)
	}
	finishStream(c)
}

// TestOverloadRejectReason: a tenant that meets its own QoS contract but
// arrives at a full shared window is rejected with the overload reason — not
// throttled, which would misattribute the pressure to the tenant itself.
func TestOverloadRejectReason(t *testing.T) {
	testutil.CheckLeaks(t)
	_, addr := startServer(t, server.Config{MaxInflight: 1, Linger: time.Minute})
	c := dialClient(t, addr)
	payload := bytes.Repeat([]byte("req"), 100)
	// One write: the second frame is in hand when the first is staged, so
	// the first stays staged and holds the window.
	c.send(wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 1, Seq: 0, Payload: payload},
		wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 2, Seq: 1, Payload: payload})

	f := c.next()
	if f.Seq != 1 {
		t.Fatalf("got %s for seq %d, want reject of seq 1", f.Type, f.Seq)
	}
	if reason, _ := rejectInfo(t, f); reason != wire.ReasonOverload {
		t.Fatalf("reason = %s, want %s", reason, wire.ReasonOverload)
	}
	c.send(wire.Frame{Type: wire.TFlush})
	if f := c.next(); f.Type != wire.TResult || f.Seq != 0 {
		t.Fatalf("after flush got %s (seq %d), want result for seq 0", f.Type, f.Seq)
	}
	finishStream(c)
}

// TestQuarantineEndToEnd: with one healthy and one heavily faulting device in
// the pool, serving traffic quarantines the bad device (visible through the
// server's scoreboard), reroutes its batches, and the archive still restores
// byte-exactly.
func TestQuarantineEndToEnd(t *testing.T) {
	testutil.CheckLeaks(t)
	srv, addr := startServer(t, server.Config{
		Linger: time.Millisecond,
		GPU:    true,
		Fleet:  []gpu.DeviceSpec{gpu.TitanXPSpec(), gpu.TitanXPSpec()},
		DeviceFaults: func(dev int) fault.Config {
			if dev == 1 {
				return fault.Config{Seed: 7, TransferRate: 0.95, KernelRate: 0.95}
			}
			return fault.Config{Seed: 1}
		},
		// MinSamples 1: the bad device's first faulted batch trips
		// quarantine, before score-weighted placement starves it of the
		// batches a larger sample would need.
		Health: health.Config{Window: 8, MinSamples: 1, ProbeEvery: 4, ReadmitAfter: 2},
	})
	data := workload.Generate(workload.Spec{Kind: workload.Linux, Size: 200 << 10, Seed: 17})
	var chunks [][]byte
	for rest := data; len(rest) > 0; {
		n := 10 << 10
		if n > len(rest) {
			n = len(rest)
		}
		chunks = append(chunks, rest[:n])
		rest = rest[n:]
	}
	c := dialClient(t, addr)
	archive := c.serveDedup(chunks...)
	if got := restoreArchive(t, archive); !bytes.Equal(got, data) {
		t.Fatal("restore with a quarantined device differs from sent bytes")
	}

	snap := srv.Health().Snapshot()
	if len(snap) != 2 {
		t.Fatalf("scoreboard has %d devices, want 2", len(snap))
	}
	if snap[0].Quarantines != 0 {
		t.Fatalf("healthy device quarantined %d times, want 0", snap[0].Quarantines)
	}
	if snap[1].Quarantines == 0 {
		t.Fatalf("faulting device never quarantined: %+v", snap[1])
	}
	if snap[0].Ops == 0 || snap[1].Ops == 0 {
		t.Fatalf("devices saw no work: %+v", snap)
	}
}
