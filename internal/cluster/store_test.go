package cluster_test

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"streamgpu/internal/cluster"
	"streamgpu/internal/sha1x"
	"streamgpu/internal/telemetry"
)

// storeQuery is the TStore Query subtype (payload[0]); its body is the
// queried hashes back to back.
const storeQuery = 1

// testCluster wires N Stores together in-process: ownership comes from a
// real ring over the store names, and the "network" is a direct call into
// the owner's HandleRPC. fail simulates a severed link from one node;
// queried counts every hash that crossed the wire in a Query.
type testCluster struct {
	stores map[string]*cluster.Store
	ring   *cluster.Ring
	fail   map[string]bool // node whose outbound RPCs error

	mu      sync.Mutex
	queried map[[sha1x.Size]byte]int
}

func newTestCluster(t *testing.T, names ...string) *testCluster {
	t.Helper()
	tc := &testCluster{
		stores:  make(map[string]*cluster.Store),
		fail:    make(map[string]bool),
		queried: make(map[[sha1x.Size]byte]int),
	}
	tc.ring = cluster.NewRing(3, 0, names)
	for _, name := range names {
		tc.stores[name] = cluster.NewStore(name, telemetry.New())
	}
	for _, name := range names {
		self := name
		tc.stores[name].Bind(
			tc.ring.OwnerHash,
			func(addr string, req []byte) ([]byte, error) {
				if tc.fail[self] {
					return nil, errors.New("link down")
				}
				if req[0] == storeQuery {
					tc.mu.Lock()
					for body := req[1:]; len(body) > 0; body = body[sha1x.Size:] {
						tc.queried[[sha1x.Size]byte(body)]++
					}
					tc.mu.Unlock()
				}
				return tc.stores[addr].HandleRPC(req), nil
			},
		)
	}
	return tc
}

func hashOf(b []byte) [sha1x.Size]byte { return sha1x.Sum20(b) }

// sightings is a test convenience over the dst-slice API.
func sightings(s *cluster.Store, hs [][sha1x.Size]byte) []bool {
	dst := make([]bool, len(hs))
	s.FirstSightings(hs, dst)
	return dst
}

// pickHashes returns count hashes owned by owner according to the ring.
func (tc *testCluster) pickHashes(owner string, count int) [][sha1x.Size]byte {
	var out [][sha1x.Size]byte
	for i := 0; len(out) < count; i++ {
		h := hashOf([]byte{byte(i), byte(i >> 8), byte(i >> 16)})
		if tc.ring.OwnerHash(h) == owner {
			out = append(out, h)
		}
	}
	return out
}

// TestStoreReservation: the first node to query a hash wins the first
// sighting; every later query — from any node, including the first —
// reports it as already seen.
func TestStoreReservation(t *testing.T) {
	tc := newTestCluster(t, "a", "b", "c")
	hs := tc.pickHashes("c", 4)

	first := sightings(tc.stores["a"], hs)
	for i, f := range first {
		if !f {
			t.Fatalf("hash %d: node a should win the first sighting", i)
		}
	}
	for _, name := range []string{"b", "a"} {
		again := sightings(tc.stores[name], hs)
		for i, f := range again {
			if f {
				t.Fatalf("hash %d: node %s saw a hash already reserved", i, name)
			}
		}
	}
	// a re-resolves locally (it cached the answers), but b learned of the
	// reservation over the wire — that is the cluster-wide remote hit.
	if tc.stores["b"].RemoteHits() == 0 {
		t.Fatal("node b's query of a-reserved hashes should count remote hits")
	}
	if tc.stores["a"].RemoteHits() != 0 {
		t.Fatal("node a should resolve its re-query from the local seen set")
	}
}

// TestStoreSelfOwned: hashes a node itself owns never leave the node — the
// reservation is purely local, and other nodes asking later get a dup.
func TestStoreSelfOwned(t *testing.T) {
	tc := newTestCluster(t, "a", "b")
	hs := tc.pickHashes("a", 3)
	tc.fail["a"] = true // a must not need the network for its own hashes
	if first := sightings(tc.stores["a"], hs); !first[0] || !first[1] || !first[2] {
		t.Fatal("self-owned hashes should be first sightings")
	}
	tc.fail["a"] = false
	if first := sightings(tc.stores["b"], hs); first[0] || first[1] || first[2] {
		t.Fatal("b should see a's reservation")
	}
}

// TestStorePublishFetch: compressed bytes published through one node are
// fetchable from another, byte-identical, and land in the fetcher's local
// cache (second fetch works with the network down).
func TestStorePublishFetch(t *testing.T) {
	tc := newTestCluster(t, "a", "b", "c")
	payload := []byte("compressed block body")
	h := hashOf(payload)

	tc.stores["a"].PublishComp(h, payload)
	got, ok := tc.stores["b"].FetchComp(h)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("fetch via b: ok=%v bytes equal=%v", ok, bytes.Equal(got, payload))
	}
	tc.fail["b"] = true
	got, ok = tc.stores["b"].FetchComp(h)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("second fetch should be served from b's local cache")
	}
	if _, ok := tc.stores["c"].FetchComp(hashOf([]byte("absent"))); ok {
		t.Fatal("fetch of unpublished hash should miss")
	}
}

// TestStoreFailOpen: when the owner is unreachable the store degrades to
// local-first semantics — every unknown hash reports first=true so the
// caller uploads it. Correctness is preserved; only dedup quality drops.
func TestStoreFailOpen(t *testing.T) {
	tc := newTestCluster(t, "a", "b")
	hs := tc.pickHashes("b", 3)
	tc.fail["a"] = true
	first := sightings(tc.stores["a"], hs)
	for i, f := range first {
		if !f {
			t.Fatalf("hash %d: degraded query must fail open to first=true", i)
		}
	}
	// The same hashes asked again while still degraded: now locally seen.
	first = sightings(tc.stores["a"], hs)
	for i, f := range first {
		if f {
			t.Fatalf("hash %d: locally-seen hash reported as first while degraded", i)
		}
	}
}

// TestStoreFailOpenRepeat: a remote-owned hash repeated inside one batch
// while the owner is unreachable is still one first sighting — the local
// table resolves the repeat before the failed Query can matter.
func TestStoreFailOpenRepeat(t *testing.T) {
	tc := newTestCluster(t, "a", "b")
	h := tc.pickHashes("b", 1)[0]
	tc.fail["a"] = true
	if got := sightings(tc.stores["a"], [][sha1x.Size]byte{h, h}); !got[0] || got[1] {
		t.Fatalf("[h, h] with the owner down = %v, want [true false]", got)
	}
}

// TestStoreQueryOncePerBatch: with the link up, each distinct remote-owned
// hash crosses the wire once per batch, however often the batch repeats it,
// and only the first occurrence is a first sighting.
func TestStoreQueryOncePerBatch(t *testing.T) {
	tc := newTestCluster(t, "a", "b")
	hs := tc.pickHashes("b", 3)
	batch := [][sha1x.Size]byte{hs[0], hs[1], hs[0], hs[2], hs[1], hs[0]}
	got := sightings(tc.stores["a"], batch)
	want := []bool{true, true, false, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sightings = %v, want %v", got, want)
		}
	}
	for i, h := range hs {
		if n := tc.queried[h]; n != 1 {
			t.Fatalf("hash %d crossed the wire %d times, want 1", i, n)
		}
	}
}

// TestStoreOneFirstPerHash: several goroutines on each of three stores
// sight overlapping hash sets, with repeats inside their batches, all RPCs
// succeeding. Across every call exactly one sighting of each distinct hash
// is first, whichever node owns it and whichever node sees it first.
func TestStoreOneFirstPerHash(t *testing.T) {
	const (
		universe = 256
		workers  = 4 // per store
		batches  = 16
		batchLen = 64
	)
	tc := newTestCluster(t, "a", "b", "c")
	hs := make([][sha1x.Size]byte, universe)
	for i := range hs {
		hs[i] = hashOf([]byte{byte(i), byte(i >> 8), 0xF1})
	}

	var (
		mu     sync.Mutex
		firsts = make(map[[sha1x.Size]byte]int)
		wg     sync.WaitGroup
	)
	for si, name := range []string{"a", "b", "c"} {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(s *cluster.Store, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				batch := make([][sha1x.Size]byte, batchLen)
				for n := 0; n < batches; n++ {
					for i := range batch {
						// A narrow window per batch makes in-batch repeats
						// common; a moving window makes the sets overlap.
						batch[i] = hs[(n*universe/batches+rng.Intn(batchLen/2))%universe]
					}
					got := sightings(s, batch)
					mu.Lock()
					for i, h := range batch {
						n := firsts[h] // recorded even at 0: a hash with no first fails
						if got[i] {
							n++
						}
						firsts[h] = n
					}
					mu.Unlock()
				}
			}(tc.stores[name], int64(si*workers+w+1))
		}
	}
	wg.Wait()

	for h, n := range firsts {
		if n != 1 {
			t.Fatalf("hash %x: %d first sightings across the cluster, want 1", h[:4], n)
		}
	}
	if len(firsts) < universe/2 {
		t.Fatalf("only %d distinct hashes sighted; the workload did not overlap as intended", len(firsts))
	}
}
