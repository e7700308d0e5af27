package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"
)

// rawDeadlineFrame hand-builds a deadline-flagged TData frame with an
// arbitrary (possibly invalid) deadline word, bypassing Append's clamping.
func rawDeadlineFrame(deadline uint64, payload []byte) []byte {
	b := make([]byte, prefixLen+headerLen+extLen, prefixLen+headerLen+extLen+len(payload))
	binary.BigEndian.PutUint32(b, uint32(headerLen+extLen+len(payload)))
	b[4] = byte(TData) | 0x80
	b[5] = byte(SvcDedup)
	binary.BigEndian.PutUint32(b[6:], 1)
	binary.BigEndian.PutUint64(b[10:], 2)
	binary.BigEndian.PutUint64(b[prefixLen+headerLen:], deadline)
	return append(b, payload...)
}

// FuzzFrameDecode feeds arbitrary bytes to Decode, Reader.Next and ReadRaw.
// The contracts: none panics; a successful Decode re-encodes to exactly the
// consumed bytes; Reader.Next and ReadRaw errors are always io.EOF or
// ErrFrame-wrapped; and the stream readers yield the frames Decode extracts,
// ReadRaw with each frame's exact bytes.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1, 1})
	f.Add(Append(nil, Frame{Type: TData, Svc: SvcDedup, Tenant: 1, Seq: 2, Payload: []byte("seed")}))
	f.Add(Append(Append(nil, Frame{Type: TEnd}), Frame{Type: TResult, Seq: 9, Payload: []byte("xy")}))
	// v2 deadline frames, well-formed and hostile. rawDeadlineFrame builds
	// the flagged layout by hand so the corpus can carry deadline words
	// Append would never emit: zero, sign-bit garbage, all-ones.
	f.Add(Append(nil, Frame{Type: TData, Svc: SvcDedup, Tenant: 3, Seq: 1, Deadline: 250 * time.Millisecond, Payload: []byte("dl")}))
	f.Add(rawDeadlineFrame(0, []byte("zero-deadline")))
	f.Add(rawDeadlineFrame(1<<63, []byte("sign-bit")))
	f.Add(rawDeadlineFrame(^uint64(0), nil))
	f.Add(rawDeadlineFrame(1, nil))
	// Flagged frame whose declared length covers the base header only — the
	// extension would run past the frame.
	short := Append(nil, Frame{Type: TData, Svc: SvcDedup, Seq: 4})
	short[4] |= 0x80
	f.Add(short)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Buffer decoder: walk as many frames as the data holds.
		var fromDecode []Frame
		rest := data
		for {
			fr, n, err := Decode(rest)
			if err != nil {
				if !errors.Is(err, ErrFrame) {
					t.Fatalf("Decode error %v does not wrap ErrFrame", err)
				}
				break
			}
			if n <= 0 || n > len(rest) {
				t.Fatalf("Decode consumed %d of %d", n, len(rest))
			}
			if re := Append(nil, fr); !bytes.Equal(re, rest[:n]) {
				t.Fatalf("re-encode mismatch: %x != %x", re, rest[:n])
			}
			// Copy: the payload aliases rest, and we compare across decoders.
			fr.Payload = append([]byte(nil), fr.Payload...)
			fromDecode = append(fromDecode, fr)
			rest = rest[n:]
		}

		// The stream readers over the same bytes must yield the same frames.
		rd := NewReader(bytes.NewReader(data), DefaultMaxPayload)
		checkStream(t, "Reader", fromDecode, func() (Frame, error) { return rd.Next() })
		br := bytes.NewReader(data)
		off := 0
		checkStream(t, "ReadRaw", fromDecode, func() (Frame, error) {
			fr, raw, err := ReadRaw(br, DefaultMaxPayload)
			if err == nil {
				if !bytes.Equal(raw, data[off:off+len(raw)]) {
					t.Fatalf("ReadRaw bytes at offset %d differ from the input", off)
				}
				off += len(raw)
			}
			return fr, err
		})
	})
}

// checkStream drains next until it fails and checks the error is io.EOF or
// ErrFrame-wrapped, and that the frames read are want.
func checkStream(t *testing.T, name string, want []Frame, next func() (Frame, error)) {
	t.Helper()
	var got []Frame
	for {
		fr, err := next()
		if err != nil {
			if err != io.EOF && !errors.Is(err, ErrFrame) {
				t.Fatalf("%s error %v is neither io.EOF nor ErrFrame", name, err)
			}
			break
		}
		fr.Payload = append([]byte(nil), fr.Payload...)
		got = append(got, fr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s decoded %d frames, Decode %d", name, len(got), len(want))
	}
	for i, fr := range want {
		g := got[i]
		if g.Type != fr.Type || g.Svc != fr.Svc || g.Tenant != fr.Tenant || g.Seq != fr.Seq || g.Deadline != fr.Deadline || !bytes.Equal(g.Payload, fr.Payload) {
			t.Fatalf("frame %d: %s %+v != Decode %+v", i, name, g, fr)
		}
	}
}

// FuzzFrameRoundTrip encodes arbitrary frame fields and checks both decode
// paths reproduce them exactly. The type is masked to its low 7 bits (bit 7
// is the deadline flag, owned by the codec) and the deadline clamped to the
// encodable range, mirroring what any real encoder produces.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint32(0), uint64(0), int64(0), []byte{})
	f.Add(uint8(4), uint8(2), uint32(77), uint64(1<<40), int64(0), []byte("payload"))
	f.Add(uint8(255), uint8(255), uint32(1<<31), uint64(3), int64(0), bytes.Repeat([]byte{7}, 300))
	f.Add(uint8(1), uint8(1), uint32(9), uint64(5), int64(time.Second), []byte("deadline"))
	f.Add(uint8(1), uint8(2), uint32(0), uint64(0), int64(1), []byte{})
	f.Add(uint8(1), uint8(1), uint32(1), uint64(1), int64(-5), []byte("negative: no flag"))
	f.Fuzz(func(t *testing.T, typ, svc uint8, tenant uint32, seq uint64, deadline int64, payload []byte) {
		in := Frame{Type: Type(typ & 0x7F), Svc: Svc(svc), Tenant: tenant, Seq: seq, Payload: payload}
		if deadline > 0 {
			in.Deadline = time.Duration(deadline)
		}
		enc := Append(nil, in)
		got, n, err := Decode(enc)
		if err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if n != len(enc) {
			t.Fatalf("consumed %d of %d", n, len(enc))
		}
		if got.Type != in.Type || got.Svc != in.Svc || got.Tenant != in.Tenant || got.Seq != in.Seq || got.Deadline != in.Deadline || !bytes.Equal(got.Payload, in.Payload) {
			t.Fatalf("Decode round-trip: got %+v want %+v", got, in)
		}
		rd := NewReader(bytes.NewReader(enc), len(payload)+1)
		sg, err := rd.Next()
		if err != nil {
			t.Fatalf("Reader round-trip: %v", err)
		}
		if sg.Type != in.Type || sg.Svc != in.Svc || sg.Tenant != in.Tenant || sg.Seq != in.Seq || sg.Deadline != in.Deadline || !bytes.Equal(sg.Payload, in.Payload) {
			t.Fatalf("Reader round-trip: got %+v want %+v", sg, in)
		}
		if _, err := rd.Next(); err != io.EOF {
			t.Fatalf("trailing read: %v, want io.EOF", err)
		}
	})
}
