package dedup

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"streamgpu/internal/sha1x"
)

// fuzzArchive builds a small valid archive for the seed corpus.
func fuzzArchive(t interface{ Fatal(...any) }, chunks ...[]byte) []byte {
	var buf bytes.Buffer
	dw := NewWriter(&buf)
	for _, c := range chunks {
		if err := dw.WriteBlock(sha1x.Sum20(c), c, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRestore throws arbitrary bytes at Restore. The contracts: it never
// panics, never over-allocates from hostile length fields (the fuzzer's own
// OOM detection backstops this), and whatever it restores round-trips: the
// output compressed with CompressSeq restores to itself.
func FuzzRestore(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("SGDD1\x00"))
	f.Add([]byte("SGDD1\x00R\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01few"))
	f.Add(fuzzArchive(f, []byte("hello hello hello hello"), []byte("hello hello hello hello"), bytes.Repeat([]byte("ab"), 400)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var out bytes.Buffer
		if Restore(bytes.NewReader(data), &out) != nil {
			return
		}
		var arch, again bytes.Buffer
		if _, err := CompressSeq(out.Bytes(), &arch, Options{}); err != nil {
			t.Fatal(err)
		}
		if err := Restore(&arch, &again); err != nil {
			t.Fatalf("restore of the re-compressed output: %v", err)
		}
		if !bytes.Equal(again.Bytes(), out.Bytes()) {
			t.Fatalf("round trip: %d bytes restored to %d", out.Len(), again.Len())
		}
	})
}

// TestRestoreHostileLengthBoundedAlloc crafts a tiny archive whose record
// declares a multi-gigabyte payload and checks Restore reports a truncation
// error after allocating only a stream-proportional amount — the regression
// the capped incremental reader fixed.
func TestRestoreHostileLengthBoundedAlloc(t *testing.T) {
	hostile := []byte("SGDD1\x00")
	hostile = append(hostile, recRaw)
	// uvarint for 1<<40 (1 TiB), followed by a handful of real bytes.
	hostile = append(hostile, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01)
	hostile = append(hostile, "only a few bytes follow"...)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := Restore(bytes.NewReader(hostile), io.Discard)
	runtime.ReadMemStats(&m1)
	if !errors.Is(err, ErrFormat) {
		t.Errorf("err = %v, want ErrFormat", err)
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 8<<20 {
		t.Errorf("allocated %d bytes handling a %d-byte hostile archive", grew, len(hostile))
	}
}
