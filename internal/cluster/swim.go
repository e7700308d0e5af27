package cluster

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// State is a member's health in the local membership view.
type State uint8

const (
	// Alive members own ring partitions and receive probes.
	Alive State = iota
	// Suspect members failed a probe round; they still own ring partitions
	// (so a transiently slow node does not churn placement) but are declared
	// Dead if they don't refute within SuspectTimeout.
	Suspect
	// Dead members are removed from the ring. They rejoin by gossiping an
	// Alive with a higher incarnation.
	Dead
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Update is one gossiped membership claim: "member is in state at
// incarnation inc". Updates piggyback on every ping/ack, which is what makes
// SWIM's dissemination free — the failure-detection traffic carries them.
type Update struct {
	Member string
	State  State
	Inc    uint32 // incarnation: refutation counter owned by the member itself
}

// DetectorConfig configures a Detector. The zero value is usable for tests;
// Node fills in production-ish timing.
type DetectorConfig struct {
	Self string
	// Seed drives probe-target and indirect-helper selection; runs with the
	// same seed and event order pick identical targets.
	Seed int64
	// SuspectTimeout is how long a Suspect member has to refute before being
	// declared Dead.
	SuspectTimeout time.Duration
}

func (c DetectorConfig) suspectTimeout() time.Duration {
	if c.SuspectTimeout <= 0 {
		return 400 * time.Millisecond
	}
	return c.SuspectTimeout
}

type memberState struct {
	state State
	inc   uint32
	// suspectAt is when the member entered Suspect; zero otherwise.
	suspectAt time.Time
}

// Detector is the SWIM-style failure detector as a pure state machine: the
// Node feeds it probe outcomes and received gossip, and it answers "who do I
// probe next", "what do I gossip", and "who is in the ring". It does no I/O
// and reads no clocks — every transition takes an explicit now — so the
// state-transition tests and partition simulations drive it deterministically
// with a virtual clock. Not safe for concurrent use; Node serializes access.
type Detector struct {
	cfg     DetectorConfig
	rng     *rand.Rand
	members map[string]*memberState // excludes self
	selfInc uint32
	// probe round-robin: a shuffled order consumed one target per tick,
	// reshuffled when exhausted (SWIM's round-robin randomized probing, which
	// bounds worst-case detection time).
	order []string
	next  int
	// version increments on any membership change the ring cares about
	// (alive/suspect set or member list), letting Node rebuild lazily.
	version uint64
}

// NewDetector builds a detector that considers only Self alive.
func NewDetector(cfg DetectorConfig) *Detector {
	return &Detector{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		members: make(map[string]*memberState),
	}
}

// Incarnation returns the local incarnation number.
func (d *Detector) Incarnation() uint32 { return d.selfInc }

// Version increments whenever the active member set changes; callers rebuild
// the ring when it moves.
func (d *Detector) Version() uint64 { return d.version }

// Active returns self plus every Alive and Suspect member, sorted — the
// ring's input. Suspects stay in until declared Dead so a slow-but-live node
// doesn't flap ownership.
func (d *Detector) Active() []string {
	out := []string{d.cfg.Self}
	for m, ms := range d.members {
		if ms.state != Dead {
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return out
}

// StateOf reports a member's current state and incarnation. Self is always
// Alive.
func (d *Detector) StateOf(member string) (State, uint32, bool) {
	if member == d.cfg.Self {
		return Alive, d.selfInc, true
	}
	ms, ok := d.members[member]
	if !ok {
		return 0, 0, false
	}
	return ms.state, ms.inc, true
}

// CountByState tallies non-self members per state (for telemetry gauges).
func (d *Detector) CountByState() (alive, suspect, dead int) {
	for _, ms := range d.members {
		switch ms.state {
		case Alive:
			alive++
		case Suspect:
			suspect++
		case Dead:
			dead++
		}
	}
	return
}

// Tick advances time-driven transitions (suspect→dead) and picks the next
// probe target. ok is false when there is nobody to probe. Dead members stay
// in the probe rotation: one successful ping resurrects them, which is how
// two halves of a healed partition rediscover each other without any
// out-of-band join step.
func (d *Detector) Tick(now time.Time) (target string, ok bool) {
	timeout := d.cfg.suspectTimeout()
	for m, ms := range d.members {
		if ms.state == Suspect && now.Sub(ms.suspectAt) >= timeout {
			d.declareDead(m, ms.inc)
		}
	}
	return d.nextProbe()
}

// nextProbe consumes the shuffled round-robin order, reshuffling over the
// full member set when exhausted (SWIM's round-robin randomized probing,
// which bounds worst-case detection time).
func (d *Detector) nextProbe() (string, bool) {
	for tries := 0; tries < 2; tries++ {
		for d.next < len(d.order) {
			m := d.order[d.next]
			d.next++
			if _, ok := d.members[m]; ok {
				return m, true
			}
		}
		d.reshuffle()
	}
	return "", false
}

func (d *Detector) reshuffle() {
	d.order = d.order[:0]
	for m := range d.members {
		d.order = append(d.order, m)
	}
	sort.Strings(d.order) // deterministic base order before the seeded shuffle
	d.rng.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
	d.next = 0
}

// IndirectTargets picks up to k live helpers (excluding target) for the
// ping-req stage of a failed direct probe.
func (d *Detector) IndirectTargets(target string, k int) []string {
	var cand []string
	for m, ms := range d.members {
		if m != target && ms.state == Alive {
			cand = append(cand, m)
		}
	}
	sort.Strings(cand)
	d.rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
	if len(cand) > k {
		cand = cand[:k]
	}
	return cand
}

// ProbeResult records the outcome of a full probe round (direct ping plus
// any indirect ping-reqs) against target. Failure moves Alive→Suspect;
// success refreshes a Suspect back to Alive at the same incarnation (we
// observed it alive ourselves, which outranks our own stale suspicion).
func (d *Detector) ProbeResult(target string, alive bool, now time.Time) {
	ms, ok := d.members[target]
	if !ok {
		return
	}
	if alive {
		if ms.state == Suspect {
			ms.state = Alive
			ms.suspectAt = time.Time{}
			d.version++
		} else if ms.state == Dead {
			// Direct evidence of life resurrects a dead member at its
			// current incarnation; gossip from the member itself will bump
			// the incarnation shortly after.
			ms.state = Alive
			d.version++
		}
		return
	}
	if ms.state == Alive {
		ms.state = Suspect
		ms.suspectAt = now
		d.version++
	}
}

// Absorb applies gossiped updates under SWIM's precedence rules:
//
//   - Alive overrides Alive/Suspect only with a strictly higher incarnation.
//   - Suspect overrides Alive at the same or higher incarnation, and Suspect
//     at a higher incarnation.
//   - Dead overrides everything at the same or higher incarnation.
//   - A claim about self in state Suspect or Dead is refuted by bumping
//     selfInc past the claim, which future gossip disseminates.
//
// Unknown members are inserted, which is also how joins propagate.
func (d *Detector) Absorb(updates []Update, now time.Time) {
	for _, u := range updates {
		if u.Member == "" {
			continue
		}
		if u.Member == d.cfg.Self {
			if u.State != Alive && u.Inc >= d.selfInc {
				d.selfInc = u.Inc + 1
				d.version++
			}
			continue
		}
		ms, ok := d.members[u.Member]
		if !ok {
			d.members[u.Member] = &memberState{state: u.State, inc: u.Inc}
			if u.State == Suspect {
				d.members[u.Member].suspectAt = now
			}
			d.version++
			continue
		}
		switch u.State {
		case Alive:
			if u.Inc > ms.inc {
				ms.inc = u.Inc
				if ms.state != Alive {
					ms.state = Alive
					ms.suspectAt = time.Time{}
				}
				d.version++
			}
		case Suspect:
			if (ms.state == Alive && u.Inc >= ms.inc) || (ms.state == Suspect && u.Inc > ms.inc) {
				ms.inc = u.Inc
				if ms.state != Suspect {
					ms.state = Suspect
					ms.suspectAt = now
				}
				d.version++
			}
		case Dead:
			if ms.state != Dead && u.Inc >= ms.inc {
				d.declareDead(u.Member, u.Inc)
			}
		}
	}
}

func (d *Detector) declareDead(member string, inc uint32) {
	ms := d.members[member]
	ms.state = Dead
	ms.inc = inc
	ms.suspectAt = time.Time{}
	d.version++
}

// Updates returns the full membership table (self first) for piggybacking on
// outgoing gossip. Full-table exchange is O(n) per message — fine at the
// cluster sizes streamd targets, and it makes convergence easy to reason
// about in the partition tests.
func (d *Detector) Updates() []Update {
	out := make([]Update, 0, len(d.members)+1)
	out = append(out, Update{Member: d.cfg.Self, State: Alive, Inc: d.selfInc})
	keys := make([]string, 0, len(d.members))
	for m := range d.members {
		keys = append(keys, m)
	}
	sort.Strings(keys)
	for _, m := range keys {
		ms := d.members[m]
		out = append(out, Update{Member: m, State: ms.state, Inc: ms.inc})
	}
	return out
}

// gossip message kinds carried in wire.TGossip payloads.
const (
	gossipPing    = 1 // probe: "are you alive" + piggybacked updates
	gossipAck     = 2 // reply to ping/pingReq + piggybacked updates
	gossipPingReq = 3 // indirect probe: "ping Target for me"
)

// gossipMsg is the TGossip payload: kind, sender, optional indirect target,
// and the piggybacked membership table.
//
// Encoding (all big-endian):
//
//	kind u8 | ok u8 | from u16+bytes | target u16+bytes |
//	nupdates u16 | nupdates × (state u8, inc u32, member u16+bytes)
type gossipMsg struct {
	Kind    byte
	Ok      bool // ack only: outcome of a relayed pingReq
	From    string
	Target  string // pingReq only: who to probe
	Updates []Update
}

func appendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func parseString(b []byte) (string, []byte, bool) {
	if len(b) < 2 {
		return "", nil, false
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return "", nil, false
	}
	return string(b[:n]), b[n:], true
}

func (g *gossipMsg) encode(dst []byte) []byte {
	dst = append(dst, g.Kind)
	ok := byte(0)
	if g.Ok {
		ok = 1
	}
	dst = append(dst, ok)
	dst = appendString(dst, g.From)
	dst = appendString(dst, g.Target)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(g.Updates)))
	for _, u := range g.Updates {
		dst = append(dst, byte(u.State))
		dst = binary.BigEndian.AppendUint32(dst, u.Inc)
		dst = appendString(dst, u.Member)
	}
	return dst
}

func parseGossip(b []byte) (gossipMsg, bool) {
	var g gossipMsg
	if len(b) < 2 {
		return g, false
	}
	g.Kind = b[0]
	g.Ok = b[1] == 1
	b = b[2:]
	var ok bool
	if g.From, b, ok = parseString(b); !ok {
		return g, false
	}
	if g.Target, b, ok = parseString(b); !ok {
		return g, false
	}
	if len(b) < 2 {
		return g, false
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	g.Updates = make([]Update, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 5 {
			return g, false
		}
		u := Update{State: State(b[0]), Inc: binary.BigEndian.Uint32(b[1:5])}
		b = b[5:]
		if u.Member, b, ok = parseString(b); !ok {
			return g, false
		}
		g.Updates = append(g.Updates, u)
	}
	return g, true
}
