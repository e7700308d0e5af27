// Package chaos is the serving layer's failure-injection harness: a seeded
// scenario driver that runs an in-process streamd and composes the failure
// modes the overload design must absorb — per-device GPU fault storms
// (including degradation that begins mid-stream), abrupt connection drops,
// and hog-versus-small tenant mixes — while the assertions stay the boring
// invariants that matter: fleets see zero corrupted archives, quarantined
// devices come back, shutdown drains cleanly, and no goroutine outlives the
// run (testutil.CheckLeaks in every test).
//
// The driver is deliberately phase-oriented rather than timer-oriented:
// tests degrade a device *between* traffic phases instead of racing a timer
// against a fleet, which keeps scenarios reproducible from their seed alone.
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamgpu/internal/fault"
	"streamgpu/internal/health"
	"streamgpu/internal/loadgen"
	"streamgpu/internal/server"
	"streamgpu/internal/server/wire"
)

// Runner owns one live server plus the knobs a scenario turns.
type Runner struct {
	tb   testing.TB
	srv  *server.Server
	addr string

	faults []atomic.Value // fault.Config per device

	mu  sync.Mutex
	rng *rand.Rand

	serveErr chan error
	closed   bool
}

// Start launches a server configured by cfg on an ephemeral port. The
// runner installs itself as cfg.DeviceFaults so scenarios can degrade and
// heal individual devices while traffic flows; cfg.Faults seeds every
// device's initial injector. Close (registered as a test cleanup) asserts a
// clean graceful drain.
func Start(tb testing.TB, seed int64, cfg server.Config) *Runner {
	tb.Helper()
	r := &Runner{
		tb:       tb,
		rng:      rand.New(rand.NewSource(seed)),
		serveErr: make(chan error, 1),
	}
	if cfg.GPU {
		cfg.DeviceFaults = r.faultsFor
	}
	r.srv = server.New(cfg)
	devs := 1
	if h := r.srv.Health(); h != nil {
		devs = h.Devices()
	}
	r.faults = make([]atomic.Value, devs)
	for i := range r.faults {
		fc := cfg.Faults
		fc.Seed = seed + int64(i)
		r.faults[i].Store(fc)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatalf("chaos: listen: %v", err)
	}
	r.addr = ln.Addr().String()
	go func() { r.serveErr <- r.srv.Serve(ln) }()
	tb.Cleanup(r.Close)
	return r
}

// Addr is the server's dial address.
func (r *Runner) Addr() string { return r.addr }

// Health exposes the server's device scoreboard (nil when GPU is off).
func (r *Runner) Health() *health.Scoreboard { return r.srv.Health() }

func (r *Runner) faultsFor(dev int) fault.Config {
	if dev < 0 || dev >= len(r.faults) {
		dev = 0
	}
	return r.faults[dev].Load().(fault.Config)
}

// Degrade points device dev's fault injection at fc from the next batch on —
// injectors are built per batch, so the change lands mid-stream without
// restarting anything.
func (r *Runner) Degrade(dev int, fc fault.Config) {
	if fc.Seed == 0 {
		fc.Seed = r.nextSeed()
	}
	r.faults[dev].Store(fc)
}

// Heal clears device dev's fault injection.
func (r *Runner) Heal(dev int) { r.faults[dev].Store(fault.Config{}) }

// nextSeed derives a fresh deterministic seed from the scenario's.
func (r *Runner) nextSeed() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Int63()
}

// Fleets runs the given loadgen fleets concurrently against the server and
// returns their reports in argument order. The runner fills in the address,
// derives a seed for any fleet that has none, and fails the test on client
// errors — a chaos scenario's traffic must end verdicts-only, never broken.
func (r *Runner) Fleets(cfgs ...loadgen.Config) []loadgen.Report {
	r.tb.Helper()
	reports := make([]loadgen.Report, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		cfg := cfgs[i]
		cfg.Addr = r.addr
		if cfg.Seed == 0 {
			cfg.Seed = r.nextSeed()
		}
		wg.Add(1)
		go func(i int, cfg loadgen.Config) {
			defer wg.Done()
			reports[i], errs[i] = loadgen.Run(cfg)
		}(i, cfg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			r.tb.Errorf("chaos: fleet %d: %v", i, err)
		}
		if reports[i].RestoreFailures > 0 {
			r.tb.Errorf("chaos: fleet %d: %d corrupted archives", i, reports[i].RestoreFailures)
		}
	}
	return reports
}

// Drops opens n connections and severs each abruptly mid-stream: a valid
// request, then (for some) a torn half-frame, then a hard close with no
// TEnd handshake. The server must absorb all of it without corrupting other
// sessions or leaking the admitted work.
func (r *Runner) Drops(n int) {
	r.tb.Helper()
	for i := 0; i < n; i++ {
		conn, err := net.DialTimeout("tcp", r.addr, 5*time.Second)
		if err != nil {
			r.tb.Errorf("chaos: drop dial: %v", err)
			return
		}
		seed := r.nextSeed()
		payload := make([]byte, 256+seed%1024)
		for j := range payload {
			payload[j] = byte(seed >> (uint(j) % 8 * 8))
		}
		fw := wire.NewWriter(conn)
		fw.Write(wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 999, Seq: 0, Payload: payload})
		fw.Flush()
		if seed%2 == 0 {
			// Tear a frame in half before hanging up.
			torn := wire.Append(nil, wire.Frame{Type: wire.TData, Svc: wire.SvcDedup, Tenant: 999, Seq: 1, Payload: payload})
			conn.Write(torn[:len(torn)/2])
		}
		conn.Close()
	}
}

// Close drains the server and asserts the drain was clean. Registered as a
// cleanup by Start; calling it early (to assert drain before inspecting
// state) is fine.
func (r *Runner) Close() {
	r.tb.Helper()
	if r.closed {
		return
	}
	r.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := r.srv.Shutdown(ctx); err != nil {
		r.tb.Errorf("chaos: shutdown not clean: %v", err)
	}
	if err := <-r.serveErr; err != nil {
		r.tb.Errorf("chaos: serve returned: %v", err)
	}
}

// ScaledRequests picks a per-client request count: full depth normally,
// shallow under -short (the CI race pass runs chaos in short mode).
func ScaledRequests(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

// Describe renders the one-line fleet summary chaos failures print.
func Describe(name string, rep loadgen.Report) string {
	return fmt.Sprintf("%s: accepted=%d rejected=%d retries=%d throttled=%d deadline_misses=%d p99=%.1fms",
		name, rep.Accepted, rep.Rejected, rep.Retries, rep.Throttled, rep.DeadlineMisses,
		rep.LatencyP99*1e3)
}
