package cluster

import (
	"bytes"
	"testing"

	"streamgpu/internal/sha1x"
	"streamgpu/internal/telemetry"
)

// FuzzStoreRPC throws arbitrary TStore payloads at a node's peer handler.
// The contracts: HandleRPC never panics; a non-nil reply to a Query of n
// hashes is exactly 1+n bytes, typed storeQueryResp, with 0/1 verdicts; a
// hash queried twice reads "known" the second time; a Put's body is
// fetchable afterwards.
func FuzzStoreRPC(f *testing.F) {
	h1, h2 := sha1x.Sum20([]byte("one")), sha1x.Sum20([]byte("two"))
	query := append(append([]byte{storeQuery}, h1[:]...), h2[:]...)
	put := append(append([]byte{storePut}, h1[:]...), "body"...)
	f.Add([]byte{})
	f.Add(query)
	f.Add(append(append([]byte{storeQuery}, h1[:]...), h1[:]...)) // in-query repeat
	f.Add(query[:1+sha1x.Size+7])                                 // length not a multiple of 20
	f.Add([]byte{storeQueryResp, 0, 1})
	f.Add(append([]byte{storeFetch}, h1[:]...))
	f.Add([]byte{storeFetch, 1, 2, 3}) // truncated hash
	f.Add([]byte{storeFetchResp, 1})
	f.Add(put)
	f.Add(put[:1+sha1x.Size])   // empty body
	f.Add(put[:1+sha1x.Size-1]) // truncated hash
	f.Add([]byte{storePutResp})
	f.Add([]byte{0xFF})
	f.Fuzz(func(t *testing.T, req []byte) {
		s := NewStore("self", telemetry.New())
		resp := s.HandleRPC(req)
		if len(req) == 0 || resp == nil {
			return
		}
		switch req[0] {
		case storeQuery:
			n := (len(req) - 1) / sha1x.Size
			if (len(req)-1)%sha1x.Size != 0 || len(resp) != 1+n || resp[0] != storeQueryResp {
				t.Fatalf("query of %d bytes: reply %d bytes, subtype %d", len(req)-1, len(resp), resp[0])
			}
			for i, v := range resp[1:] {
				if v > 1 {
					t.Fatalf("verdict %d = %d, want 0 or 1", i, v)
				}
			}
			for i, v := range s.HandleRPC(req)[1:] {
				if v != 1 {
					t.Fatalf("hash %d queried twice read unknown", i)
				}
			}
		case storeFetch:
			if len(resp) < 2 || resp[0] != storeFetchResp || resp[1] > 1 {
				t.Fatalf("fetch reply %v", resp)
			}
		case storePut:
			if !bytes.Equal(resp, []byte{storePutResp}) {
				t.Fatalf("put reply %v", resp)
			}
			fetch := append([]byte{storeFetch}, req[1:1+sha1x.Size]...)
			got := s.HandleRPC(fetch)
			if len(got) < 2 || got[1] != 1 || !bytes.Equal(got[2:], req[1+sha1x.Size:]) {
				t.Fatalf("put body not fetchable: %v", got)
			}
		}
	})
}
