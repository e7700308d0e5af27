package server_test

import (
	"context"
	"net"
	"testing"
	"time"

	"streamgpu/internal/fault"
	"streamgpu/internal/loadgen"
	"streamgpu/internal/server"
	"streamgpu/internal/server/wire"
	"streamgpu/internal/telemetry"
	"streamgpu/internal/testutil"
)

// TestSoakServeUnderRace hammers an in-process server with 64 concurrent
// closed-loop clients while the GPU path injects faults — the whole point is
// running it under -race (the CI race job does). Invariants: every accepted
// request restores correctly (zero restore failures; rejects are fine, that
// is admission control working), shutdown drains cleanly, and no goroutines
// survive.
func TestSoakServeUnderRace(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	testutil.CheckLeaks(t)

	reg := telemetry.New()
	srv := server.New(server.Config{
		MaxInflight: 32, // small window so rejection paths get exercised too
		Linger:      500 * time.Microsecond,
		GPU:         true,
		Faults:      fault.Config{Seed: 99, TransferRate: 0.02, KernelRate: 0.02},
		Metrics:     reg,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	for _, svc := range []wire.Svc{wire.SvcDedup, wire.SvcMandel} {
		rep, err := loadgen.Run(loadgen.Config{
			Addr:     ln.Addr().String(),
			Service:  svc,
			Clients:  64,
			Requests: 10,
			Tenants:  8,
			MinBytes: 256,
			MaxBytes: 32 << 10,
			Seed:     7,
			Verify:   true,
		})
		if err != nil {
			t.Fatalf("%s: loadgen: %v (errors: %v)", svc, err, rep.Errors)
		}
		if rep.RestoreFailures != 0 {
			t.Fatalf("%s: %d restore failures", svc, rep.RestoreFailures)
		}
		if rep.Accepted == 0 {
			t.Fatalf("%s: no requests accepted", svc)
		}
		t.Logf("%s: %d accepted, %d rejected, p99 %.1fms",
			svc, rep.Accepted, rep.Rejected, rep.LatencyP99*1e3)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}
