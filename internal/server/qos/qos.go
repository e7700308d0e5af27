// Package qos holds the per-tenant quality-of-service primitives of the
// serving layer: token buckets for rate limiting, a weight table with a
// flag-friendly text form, and the FIFO scheduler in front of each resident
// pipeline.
//
// The serving layer's original admission control was a single high-water
// mark shared by every tenant — correct as backpressure, but at
// millions-of-users scale one hog tenant fills the window and every other
// tenant sees indiscriminate rejects. The FastFlow lesson (farms that
// resize and shed load *selectively*) applies at the service boundary:
// admission gives each tenant a share of the window by weight, and token
// buckets bound the rate at which any single tenant may claim admission in
// the first place. Admitted work then waits in one bounded FIFO, like every
// other queue of the stream. Costs are in bytes of work (request payload
// for dedup, output pixels for mandel), not request counts, so a tenant
// cannot cheat its rate by packing its load into fewer, larger requests.
//
// Everything here is clock-injected so the buckets' refill and the
// scheduler's expiry are unit-testable without a live server.
package qos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Spec is one tenant's QoS contract.
type Spec struct {
	// Weight is the tenant's relative share of contended admission-window
	// slots. Minimum 1.
	Weight int
	// Rate is the sustained admission rate in cost units (bytes of work)
	// per second. 0 means unlimited: the tenant is bounded only by its
	// weight under contention.
	Rate float64
	// Burst is the token-bucket depth in cost units: how much a tenant may
	// claim instantaneously before Rate takes over. When Rate > 0 and
	// Burst <= 0, the bucket defaults to one second's worth of Rate.
	Burst float64
}

// withDefaults normalizes a spec.
func (s Spec) withDefaults() Spec {
	if s.Weight <= 0 {
		s.Weight = 1
	}
	if s.Rate > 0 && s.Burst <= 0 {
		s.Burst = s.Rate
	}
	return s
}

// Table maps tenant IDs to their QoS specs, with a default for tenants not
// explicitly configured.
type Table struct {
	Default Spec
	Tenants map[uint32]Spec
}

// Spec returns the (normalized) spec for tenant.
func (t Table) Spec(tenant uint32) Spec {
	if s, ok := t.Tenants[tenant]; ok {
		return s.withDefaults()
	}
	return t.Default.withDefaults()
}

// ParseTable parses the -tenant-weights flag form: a comma-separated list
// of tenant:weight[:rate[:burst]] entries, where tenant is a decimal tenant
// ID or the literal "default". Rate and burst are cost units (bytes of
// work) per second and absolute cost units respectively; both accept
// scientific notation ("2e6").
//
//	"default:1:1e6,7:8,9:2:5e5:1e6"
//
// An empty string yields a zero Table (every tenant weight 1, unlimited).
func ParseTable(s string) (Table, error) {
	t := Table{Tenants: make(map[uint32]Spec)}
	s = strings.TrimSpace(s)
	if s == "" {
		return t, nil
	}
	for _, entry := range strings.Split(s, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 2 || len(parts) > 4 {
			return t, fmt.Errorf("qos: entry %q: want tenant:weight[:rate[:burst]]", entry)
		}
		var spec Spec
		w, err := strconv.Atoi(parts[1])
		if err != nil || w <= 0 {
			return t, fmt.Errorf("qos: entry %q: bad weight %q", entry, parts[1])
		}
		spec.Weight = w
		if len(parts) >= 3 {
			if spec.Rate, err = strconv.ParseFloat(parts[2], 64); err != nil || spec.Rate < 0 {
				return t, fmt.Errorf("qos: entry %q: bad rate %q", entry, parts[2])
			}
		}
		if len(parts) == 4 {
			if spec.Burst, err = strconv.ParseFloat(parts[3], 64); err != nil || spec.Burst < 0 {
				return t, fmt.Errorf("qos: entry %q: bad burst %q", entry, parts[3])
			}
		}
		if parts[0] == "default" {
			t.Default = spec
			continue
		}
		id, err := strconv.ParseUint(parts[0], 10, 32)
		if err != nil {
			return t, fmt.Errorf("qos: entry %q: bad tenant %q", entry, parts[0])
		}
		t.Tenants[uint32(id)] = spec
	}
	return t, nil
}

// Bucket is a token bucket: capacity Burst, refilled at Rate units/second.
// Not safe for concurrent use; the admission path serializes access per
// tenant under its own lock. The clock is passed in, so refill behavior is
// unit-testable with a fake time source.
type Bucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// NewBucket builds a full bucket from spec (Rate 0 disables limiting).
func NewBucket(spec Spec, now time.Time) *Bucket {
	spec = spec.withDefaults()
	return &Bucket{rate: spec.Rate, burst: spec.Burst, tokens: spec.Burst, last: now}
}

// Limited reports whether the bucket enforces a rate at all.
func (b *Bucket) Limited() bool { return b.rate > 0 }

// refill credits tokens for the time elapsed since the last observation.
func (b *Bucket) refill(now time.Time) {
	if d := now.Sub(b.last); d > 0 {
		b.tokens += b.rate * d.Seconds()
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// Take debits cost tokens if available and reports whether it did. An
// unlimited bucket always succeeds.
func (b *Bucket) Take(cost int, now time.Time) bool {
	if !b.Limited() {
		return true
	}
	b.refill(now)
	if b.tokens < float64(cost) {
		return false
	}
	b.tokens -= float64(cost)
	return true
}

// Refund credits cost tokens back, capped at the burst depth — for callers
// whose Take succeeded but whose request then failed a later admission stage
// and never received service.
func (b *Bucket) Refund(cost int) {
	if !b.Limited() {
		return
	}
	b.tokens += float64(cost)
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// Wait reports how long until Take(cost) could succeed — the basis of the
// retry-after hint a throttled tenant receives. Zero for unlimited buckets;
// a cost above the burst depth can never succeed, reported as the time to
// fill the whole bucket.
func (b *Bucket) Wait(cost int, now time.Time) time.Duration {
	if !b.Limited() {
		return 0
	}
	b.refill(now)
	need := float64(cost)
	if need > b.burst {
		need = b.burst
	}
	deficit := need - b.tokens
	if deficit <= 0 {
		return 0
	}
	return time.Duration(deficit / b.rate * float64(time.Second))
}
