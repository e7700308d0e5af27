// Package cluster shards the streaming service across N streamd nodes: a
// consistent-hash ring places tenants on nodes, a SWIM-style gossip
// failure detector keeps every node's view of the membership converging,
// client connections are routed on the existing wire framing (any node
// accepts, then serves or redirects to the owner), and a
// content-addressed store dedups blocks cluster-wide instead of per-session.
//
// The design follows the FastFlow lesson the ROADMAP cites: the same
// farm/pipeline structure composes across placement boundaries, and work
// migrates to where capacity is. Here "placement" is tenant→node ownership
// on the ring, and "migration" is what happens to that mapping when
// membership changes — a node joining or dying moves only the expected
// 1/(n+1) fraction of tenants, which the ring's property test pins.
package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"sort"

	"streamgpu/internal/sha1x"
)

// DefaultVNodes is the virtual-node count per member. 64 points per node
// keeps the largest-to-smallest ownership spread within ~2x for small
// clusters while the ring stays a few KB.
const DefaultVNodes = 64

// Ring is an immutable consistent-hash ring over a member set. Every node
// builds its ring from the same (seed, vnodes, members) inputs, so two nodes
// with converged membership agree on every owner without coordination.
// Rebuild on membership change; reads are lock-free.
type Ring struct {
	seed   int64
	points []ringPoint // sorted by key, ties broken by member
	member []string    // sorted member list the ring was built from
}

type ringPoint struct {
	key   uint64
	owner string
}

// NewRing builds a ring with vnodes virtual points per member (<= 0 selects
// DefaultVNodes). The layout is a pure function of (seed, vnodes, members):
// member order does not matter, and the same inputs yield the same ring on
// every node.
func NewRing(seed int64, vnodes int, members []string) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	r := &Ring{seed: seed, member: sorted, points: make([]ringPoint, 0, len(sorted)*vnodes)}
	for _, m := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{key: pointHash(seed, m, v), owner: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].key != r.points[j].key {
			return r.points[i].key < r.points[j].key
		}
		return r.points[i].owner < r.points[j].owner
	})
	return r
}

// pointHash places one virtual node: FNV-64a over (seed, member, vnode),
// then a strong finalizer. Raw FNV has poor avalanche when inputs differ
// only in trailing bytes — consecutive vnode indices land within a narrow
// window of the ring, collapsing a member's virtual nodes into effectively
// one point — so the output must be remixed before use as a ring position.
func pointHash(seed int64, member string, v int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(member))
	binary.BigEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
	return mix64(h.Sum64())
}

// keyHash maps an arbitrary ring key (tenant, block hash prefix) onto the
// ring's key space, mixing the seed so tenant placement is deployment-unique.
func keyHash(seed int64, kind byte, key uint64) uint64 {
	h := fnv.New64a()
	var b [9]byte
	binary.BigEndian.PutUint64(b[:8], uint64(seed))
	b[8] = kind
	h.Write(b[:])
	binary.BigEndian.PutUint64(b[:8], key)
	h.Write(b[:8])
	return mix64(h.Sum64())
}

// mix64 is the murmur3 finalizer: full avalanche over 64 bits.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Len reports the member count.
func (r *Ring) Len() int { return len(r.member) }

// owner returns the member owning ring position key: the first virtual node
// clockwise from key, wrapping at the top.
func (r *Ring) owner(key uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].key >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].owner
}

// OwnerTenant returns the node owning a tenant's sessions.
func (r *Ring) OwnerTenant(tenant uint32) string {
	return r.owner(keyHash(r.seed, 't', uint64(tenant)))
}

// OwnerHash returns the node owning a content hash's store partition. Block
// ownership is keyed on the hash, not the tenant, so the store's key space
// spreads evenly regardless of how skewed tenant traffic is.
func (r *Ring) OwnerHash(h [sha1x.Size]byte) string {
	return r.owner(keyHash(r.seed, 'h', binary.BigEndian.Uint64(h[:8])))
}
