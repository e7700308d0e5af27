package cluster

import (
	"sync"

	"streamgpu/internal/dedup"
	"streamgpu/internal/sha1x"
	"streamgpu/internal/telemetry"
)

// Store is the cluster-wide content-addressed block index: a routing and
// body-cache decorator over the node's striped dedup.Store. The sha1 key
// space is partitioned across nodes by the ring (OwnerHash); the local table
// is the authoritative seen-set for this node's partition and a cache of
// every other hash this node has observed. As a dedup.BlockStore it answers
// "have we seen this block?" cluster-wide instead of per-node, and its
// Exchange ships a block compressed once on any node to later sighters
// instead of having it recompressed.
//
// Correctness does not depend on the store at all: per-session dedup.Writer
// makes the authoritative stream-order decision, LZSS is deterministic, and
// content addressing keys on the raw bytes — so a lost RPC, a stale ring, or
// a cold new owner only costs duplicate compression work, never archive
// bytes. That is what lets the RPC paths fail open (keep the local verdict)
// with no recovery protocol.
type Store struct {
	local *dedup.Store // the node's one first-sighting table

	mu     sync.Mutex
	r      route                       // routing hooks, swapped by Bind
	blocks map[[sha1x.Size]byte][]byte // compressed bodies cached locally

	lookupLocal  *telemetry.Counter // duplicate known before asking anyone
	lookupRemote *telemetry.Counter // duplicate discovered via a partition owner
	lookupFirst  *telemetry.Counter // cluster-wide first sighting
	lookupFailed *telemetry.Counter // owner unreachable; degraded to first
	fetchHit     *telemetry.Counter
	fetchMiss    *telemetry.Counter
}

// NewStore builds a store for node self. ownerOf and rpc may be updated
// before the node starts serving; a nil ownerOf treats every hash as
// self-owned (single-node mode).
func NewStore(self string, reg *telemetry.Registry) *Store {
	return &Store{
		r:            route{self: self},
		local:        dedup.NewStore(),
		blocks:       make(map[[sha1x.Size]byte][]byte),
		lookupLocal:  reg.Counter("cluster_store_lookups_total", telemetry.Labels{"result": "local"}),
		lookupRemote: reg.Counter("cluster_store_lookups_total", telemetry.Labels{"result": "remote"}),
		lookupFirst:  reg.Counter("cluster_store_lookups_total", telemetry.Labels{"result": "first"}),
		lookupFailed: reg.Counter("cluster_store_lookups_total", telemetry.Labels{"result": "degraded"}),
		fetchHit:     reg.Counter("cluster_store_fetches_total", telemetry.Labels{"result": "hit"}),
		fetchMiss:    reg.Counter("cluster_store_fetches_total", telemetry.Labels{"result": "miss"}),
	}
}

// Bind installs the routing hooks. Called before serving and again whenever
// the ring changes (Node holds the store lock's peer, so swaps are ordered
// with lookups).
func (s *Store) Bind(ownerOf func(h [sha1x.Size]byte) string, rpc func(addr string, req []byte) ([]byte, error)) {
	s.mu.Lock()
	s.r.ownerOf = ownerOf
	s.r.rpc = rpc
	s.mu.Unlock()
}

// route is the node's view of the partition: ownerOf maps a hash to its
// owner under the current ring, and rpc issues one TStore request to addr
// and returns the response payload. Readers copy it under Store.mu.
type route struct {
	self    string
	ownerOf func(h [sha1x.Size]byte) string
	rpc     func(addr string, req []byte) ([]byte, error)
}

// remote returns h's partition owner when that is another node reachable
// over rpc, and "" when h resolves on this node.
func (r route) remote(h [sha1x.Size]byte) string {
	if r.ownerOf == nil || r.rpc == nil {
		return ""
	}
	if owner := r.ownerOf(h); owner != r.self {
		return owner
	}
	return ""
}

// Blocks reports the local cache size (for the cluster_store_blocks gauge).
func (s *Store) Blocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blocks)
}

// RemoteHits reports cluster-level duplicate discoveries (test hook).
func (s *Store) RemoteHits() int64 { return s.lookupRemote.Value() }

// TStore RPC subtypes (payload[0] of a TStore frame).
const (
	storeQuery     = 1 // req: 20N hashes → resp: N known-bytes (marks unknowns seen)
	storeQueryResp = 2
	storeFetch     = 3 // req: one hash → resp: known-byte + compressed body
	storeFetchResp = 4
	storePut       = 5 // req: one hash + compressed body → resp: empty
	storePutResp   = 6
)

// FirstSightings implements dedup.BlockStore: dst[i] is true iff hashes[i]
// is a cluster-wide first sighting. The whole batch is recorded in the local
// table first, so a repeat within the batch or a hash seen here before is a
// duplicate without touching the network. Hashes new here and owned
// elsewhere are batched into one Query RPC per owner; the owner records
// queried unknowns in its own table atomically, so exactly one node
// cluster-wide wins each first sighting even when two nodes query
// concurrently. An unreachable owner keeps the local verdict (fail open) —
// we compress locally and lose nothing but the shortcut.
func (s *Store) FirstSightings(hashes [][sha1x.Size]byte, dst []bool) {
	type pending struct {
		idx []int
		req []byte
	}
	var remote map[string]*pending

	s.local.FirstSightings(hashes, dst)
	s.mu.Lock()
	r := s.r
	s.mu.Unlock()
	for i, h := range hashes {
		if !dst[i] {
			s.lookupLocal.Inc()
			continue
		}
		owner := r.remote(h)
		if owner == "" {
			s.lookupFirst.Inc()
			continue
		}
		if remote == nil {
			remote = make(map[string]*pending)
		}
		p := remote[owner]
		if p == nil {
			p = &pending{req: []byte{storeQuery}}
			remote[owner] = p
		}
		p.idx = append(p.idx, i)
		p.req = append(p.req, h[:]...)
	}

	for owner, p := range remote {
		resp, err := r.rpc(owner, p.req)
		if err != nil || len(resp) < 1+len(p.idx) || resp[0] != storeQueryResp {
			// Fail open: the local first sighting stands. Worst case two
			// nodes both compress the block; the archives are unaffected.
			s.lookupFailed.Add(int64(len(p.idx)))
			continue
		}
		for j, i := range p.idx {
			if resp[1+j] == 1 {
				dst[i] = false
				s.lookupRemote.Inc()
			} else {
				s.lookupFirst.Inc()
			}
		}
	}
}

// Exchange implements dedup.BlockStore's post-compression hook: publish
// every block the batch compressed, and fill Comp for every other block
// whose compressed body this node holds or can fetch from the block's
// owner. Fetched bodies are byte-identical to what local compression would
// have produced (LZSS is deterministic and content addressing keys on the
// raw bytes), so the downstream Writer's output does not depend on which
// node compressed a block first.
func (s *Store) Exchange(b *dedup.Batch) {
	for k, comp := range b.Comp {
		if comp != nil {
			s.PublishComp(b.Hashes[k], comp)
		} else if body, ok := s.FetchComp(b.Hashes[k]); ok {
			b.Comp[k] = body
		}
	}
}

// PublishComp caches a compressed body locally and pushes it to the
// partition owner so other nodes' fetches find it. comp is only valid
// during the call (batch arenas recycle), so it is copied.
func (s *Store) PublishComp(h [sha1x.Size]byte, comp []byte) {
	body := append([]byte(nil), comp...)
	s.mu.Lock()
	if _, ok := s.blocks[h]; ok {
		s.mu.Unlock()
		return
	}
	s.blocks[h] = body
	r := s.r
	s.mu.Unlock()

	owner := r.remote(h)
	if owner == "" {
		return
	}
	req := make([]byte, 1, 1+sha1x.Size+len(body))
	req[0] = storePut
	req = append(req, h[:]...)
	req = append(req, body...)
	// Best-effort: a lost put only means later fetches miss and recompress.
	_, _ = r.rpc(owner, req)
}

// FetchComp returns the compressed body of a block some node already
// compressed: local cache first, then the partition owner. The body stays
// valid and immutable. A miss (reservation won elsewhere but the body not
// yet published) returns ok=false and the Writer compresses inline.
func (s *Store) FetchComp(h [sha1x.Size]byte) ([]byte, bool) {
	s.mu.Lock()
	body, ok := s.blocks[h]
	r := s.r
	s.mu.Unlock()
	if ok {
		s.fetchHit.Inc()
		return body, true
	}

	owner := r.remote(h)
	if owner == "" {
		s.fetchMiss.Inc()
		return nil, false
	}
	req := make([]byte, 1, 1+sha1x.Size)
	req[0] = storeFetch
	req = append(req, h[:]...)
	resp, err := r.rpc(owner, req)
	if err != nil || len(resp) < 2 || resp[0] != storeFetchResp || resp[1] != 1 {
		s.fetchMiss.Inc()
		return nil, false
	}
	body = append([]byte(nil), resp[2:]...)
	s.mu.Lock()
	if _, ok := s.blocks[h]; !ok {
		s.blocks[h] = body
	}
	s.mu.Unlock()
	s.fetchHit.Inc()
	return body, true
}

// HandleRPC serves one TStore request payload from a peer and returns the
// response payload. Unknown or malformed requests return an empty response,
// which callers treat as failure (and fail open).
func (s *Store) HandleRPC(req []byte) []byte {
	if len(req) < 1 {
		return nil
	}
	switch req[0] {
	case storeQuery:
		body := req[1:]
		if len(body)%sha1x.Size != 0 {
			return nil
		}
		n := len(body) / sha1x.Size
		resp := make([]byte, 1+n)
		resp[0] = storeQueryResp
		for i := 0; i < n; i++ {
			// Recording a queried hash is the reservation: the querier is
			// about to compress this block, so the next asker sees a
			// duplicate.
			if !s.local.FirstSighting([sha1x.Size]byte(body[i*sha1x.Size:])) {
				resp[1+i] = 1
			}
		}
		return resp
	case storeFetch:
		if len(req) < 1+sha1x.Size {
			return nil
		}
		h := [sha1x.Size]byte(req[1:])
		s.mu.Lock()
		body, ok := s.blocks[h]
		s.mu.Unlock()
		resp := make([]byte, 2, 2+len(body))
		resp[0] = storeFetchResp
		if ok {
			resp[1] = 1
			resp = append(resp, body...)
		}
		return resp
	case storePut:
		if len(req) < 1+sha1x.Size {
			return nil
		}
		h := [sha1x.Size]byte(req[1:])
		body := append([]byte(nil), req[1+sha1x.Size:]...)
		s.mu.Lock()
		if _, ok := s.blocks[h]; !ok {
			s.blocks[h] = body
		}
		s.mu.Unlock()
		s.local.FirstSighting(h)
		return []byte{storePutResp}
	default:
		return nil
	}
}
