package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"
)

func TestRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: TData, Svc: SvcDedup, Tenant: 7, Seq: 42, Payload: []byte("hello stream")},
		{Type: TFlush, Svc: SvcDedup, Tenant: 0, Seq: 0},
		{Type: TEnd},
		{Type: TResult, Svc: SvcMandel, Tenant: 0xFFFFFFFF, Seq: 1<<64 - 1, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
		{Type: TReject, Svc: SvcDedup, Tenant: 3, Seq: 9},
		{Type: TError, Payload: []byte("boom")},
	}
	for _, f := range frames {
		enc := Append(nil, f)
		if len(enc) != EncodedLen(f) {
			t.Errorf("%v: encoded %d bytes, EncodedLen says %d", f.Type, len(enc), EncodedLen(f))
		}
		got, n, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: decode: %v", f.Type, err)
		}
		if n != len(enc) {
			t.Errorf("%v: consumed %d of %d", f.Type, n, len(enc))
		}
		if got.Type != f.Type || got.Svc != f.Svc || got.Tenant != f.Tenant || got.Seq != f.Seq || !bytes.Equal(got.Payload, f.Payload) {
			t.Errorf("%v: round-trip mismatch: got %+v", f.Type, got)
		}
	}
}

func TestDeadlineRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: TData, Svc: SvcDedup, Tenant: 7, Seq: 1, Deadline: time.Millisecond, Payload: []byte("dl")},
		{Type: TData, Svc: SvcMandel, Tenant: 0, Seq: 0, Deadline: 1},
		{Type: TFlush, Svc: SvcDedup, Tenant: 9, Seq: 3, Deadline: 10 * time.Second},
		// Negative deadlines encode as "none" — the frame is plain v1.
		{Type: TData, Svc: SvcDedup, Tenant: 1, Seq: 2, Deadline: -time.Second},
	}
	for _, f := range frames {
		enc := Append(nil, f)
		if len(enc) != EncodedLen(f) {
			t.Errorf("%+v: encoded %d bytes, EncodedLen says %d", f, len(enc), EncodedLen(f))
		}
		want := f
		if want.Deadline < 0 {
			want.Deadline = 0
		}
		got, n, err := Decode(enc)
		if err != nil {
			t.Fatalf("%+v: decode: %v", f, err)
		}
		if n != len(enc) || got.Deadline != want.Deadline || got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("%+v: Decode got %+v (consumed %d of %d)", f, got, n, len(enc))
		}
		rd := NewReader(bytes.NewReader(enc), 0)
		sg, err := rd.Next()
		if err != nil {
			t.Fatalf("%+v: Reader: %v", f, err)
		}
		if sg.Deadline != want.Deadline || sg.Type != want.Type || !bytes.Equal(sg.Payload, want.Payload) {
			t.Errorf("%+v: Reader got %+v", f, sg)
		}
	}
}

// TestV1Compat pins the deadline-free encoding to the literal v1 byte
// layout: a v2 encoder that never sets a deadline must be indistinguishable
// from a v1 encoder, or old clients break.
func TestV1Compat(t *testing.T) {
	f := Frame{Type: TResult, Svc: SvcMandel, Tenant: 0x01020304, Seq: 0x05060708090a0b0c, Payload: []byte("v1")}
	want := []byte{
		0, 0, 0, 16, // length: 14-byte header + 2 payload
		4, 2, // type (no flag bit), svc
		1, 2, 3, 4, // tenant
		5, 6, 7, 8, 9, 0x0a, 0x0b, 0x0c, // seq
		'v', '1',
	}
	if got := Append(nil, f); !bytes.Equal(got, want) {
		t.Fatalf("v1 layout drifted:\n got %x\nwant %x", got, want)
	}
}

func TestHostileDeadlines(t *testing.T) {
	base := Append(nil, Frame{Type: TData, Svc: SvcDedup, Tenant: 1, Seq: 2, Deadline: time.Second, Payload: []byte("p")})
	mut := func(edit func(b []byte)) []byte {
		b := append([]byte(nil), base...)
		edit(b)
		return b
	}
	cases := map[string][]byte{
		"zero deadline":     mut(func(b []byte) { binary.BigEndian.PutUint64(b[prefixLen+headerLen:], 0) }),
		"sign-bit deadline": mut(func(b []byte) { binary.BigEndian.PutUint64(b[prefixLen+headerLen:], 1<<63) }),
		"all-ones deadline": mut(func(b []byte) { binary.BigEndian.PutUint64(b[prefixLen+headerLen:], ^uint64(0)) }),
		// Flag set but declared length only covers the base header.
		"flag without extension": mut(func(b []byte) { binary.BigEndian.PutUint32(b, headerLen) }),
	}
	for name, b := range cases {
		if _, _, err := Decode(b); !errors.Is(err, ErrFrame) {
			t.Errorf("Decode %s: err = %v, want ErrFrame", name, err)
		}
		if _, err := NewReader(bytes.NewReader(b), 0).Next(); !errors.Is(err, ErrFrame) {
			t.Errorf("Reader %s: err = %v, want ErrFrame", name, err)
		}
	}
}

func TestRejectInfo(t *testing.T) {
	for _, tc := range []struct {
		reason Reason
		after  time.Duration
	}{
		{ReasonOverload, 0},
		{ReasonDeadline, 50 * time.Millisecond},
		{ReasonQuarantine, time.Minute},
		{ReasonThrottled, 1},
	} {
		p := AppendRejectInfo(nil, tc.reason, tc.after)
		r, d := ParseRejectInfo(p)
		if r != tc.reason || d != tc.after {
			t.Errorf("round-trip (%v, %v) = (%v, %v)", tc.reason, tc.after, r, d)
		}
	}
	// Tolerant parses: v1 empty payload, truncated hint, hostile huge hint.
	if r, d := ParseRejectInfo(nil); r != ReasonNone || d != 0 {
		t.Errorf("empty payload = (%v, %v), want (none, 0)", r, d)
	}
	if r, d := ParseRejectInfo([]byte{byte(ReasonDeadline), 1, 2}); r != ReasonDeadline || d != 0 {
		t.Errorf("truncated payload = (%v, %v), want (deadline, 0)", r, d)
	}
	hostile := AppendRejectInfo(nil, ReasonOverload, 0)
	binary.BigEndian.PutUint64(hostile[1:], ^uint64(0))
	if r, d := ParseRejectInfo(hostile); r != ReasonOverload || d != 0 {
		t.Errorf("hostile hint = (%v, %v), want clamp to 0", r, d)
	}
	// Reason labels are stable metric values.
	for r, want := range map[Reason]string{
		ReasonNone: "none", ReasonOverload: "overload", ReasonDeadline: "deadline",
		ReasonQuarantine: "quarantine", ReasonThrottled: "tenant-throttled",
	} {
		if got := r.String(); got != want {
			t.Errorf("Reason(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestDecodeConcatenated(t *testing.T) {
	a := Frame{Type: TData, Svc: SvcDedup, Tenant: 1, Seq: 1, Payload: []byte("first")}
	b := Frame{Type: TData, Svc: SvcDedup, Tenant: 1, Seq: 2, Payload: []byte("second")}
	buf := Append(Append(nil, a), b)
	got1, n1, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	got2, n2, err := Decode(buf[n1:])
	if err != nil {
		t.Fatal(err)
	}
	if n1+n2 != len(buf) {
		t.Errorf("consumed %d+%d of %d", n1, n2, len(buf))
	}
	if string(got1.Payload) != "first" || string(got2.Payload) != "second" {
		t.Errorf("payloads %q, %q", got1.Payload, got2.Payload)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":            nil,
		"short prefix":     {0, 0},
		"header only":      {0, 0, 0, 0},
		"length below min": append([]byte{0, 0, 0, 5}, make([]byte, headerLen)...),
		"length past end":  append([]byte{0, 0, 1, 0}, make([]byte, headerLen)...),
	}
	for name, b := range cases {
		if _, _, err := Decode(b); !errors.Is(err, ErrFrame) {
			t.Errorf("%s: err = %v, want ErrFrame", name, err)
		}
	}
}

func TestWriterReader(t *testing.T) {
	var buf bytes.Buffer
	fw := NewWriter(&buf)
	want := []Frame{
		{Type: TData, Svc: SvcDedup, Tenant: 2, Seq: 0, Payload: []byte("abc")},
		{Type: TData, Svc: SvcDedup, Tenant: 2, Seq: 1, Payload: bytes.Repeat([]byte("x"), 1000)},
		{Type: TEnd},
	}
	for _, f := range want {
		if err := fw.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewReader(&buf, 0)
	for i, f := range want {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != f.Type || got.Seq != f.Seq || !bytes.Equal(got.Payload, f.Payload) {
			t.Errorf("frame %d: got %+v", i, got)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Errorf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestReaderPayloadCap(t *testing.T) {
	enc := Append(nil, Frame{Type: TData, Payload: make([]byte, 100)})
	fr := NewReader(bytes.NewReader(enc), 99)
	if _, err := fr.Next(); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestReaderTruncated(t *testing.T) {
	enc := Append(nil, Frame{Type: TData, Payload: []byte("payload")})
	for cut := 1; cut < len(enc); cut++ {
		fr := NewReader(bytes.NewReader(enc[:cut]), 0)
		_, err := fr.Next()
		if !errors.Is(err, ErrFrame) {
			t.Errorf("cut at %d: err = %v, want ErrFrame-wrapped", cut, err)
		}
	}
}

// TestReaderHostileLengthNoAlloc: a declared length far past the cap must be
// rejected before any payload-sized allocation happens.
func TestReaderHostileLengthNoAlloc(t *testing.T) {
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	fr := NewReader(bytes.NewReader(hostile), 1<<20)
	allocs := testing.AllocsPerRun(10, func() {
		fr2 := *fr
		fr2.r.Reset(bytes.NewReader(hostile))
		fr2.Next()
	})
	// The error path formats a message (a couple of small allocations); the
	// point is that nothing payload-sized is allocated.
	if allocs > 10 {
		t.Errorf("hostile length allocated %v objects per run", allocs)
	}
}

// TestReaderNextAllocs: a warm Next of a frame that fits the reader's
// buffer allocates nothing. The header scratch used to escape through
// io.ReadFull: 1 alloc per frame.
func TestReaderNextAllocs(t *testing.T) {
	const runs = 100
	enc := Append(nil, Frame{Type: TData, Svc: SvcDedup, Tenant: 3, Seq: 9,
		Deadline: time.Second, Payload: bytes.Repeat([]byte("n"), 4<<10)})
	fr := NewReader(bytes.NewReader(bytes.Repeat(enc, runs+2)), 0)
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(runs, func() { _, err = fr.Next() })
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("%v allocs per Next, want 0", allocs)
	}
}

func TestRedirectInfo(t *testing.T) {
	for _, tc := range []struct {
		after time.Duration
		addr  string
	}{
		{0, "10.1.2.3:7070"},
		{200 * time.Millisecond, "node-b.internal:9999"},
		{time.Second, ""},
	} {
		p := AppendRedirectInfo(nil, tc.after, tc.addr)
		after, addr := ParseRedirectInfo(p)
		if after != tc.after || addr != tc.addr {
			t.Errorf("round-trip (%v, %q) = (%v, %q)", tc.after, tc.addr, after, addr)
		}
	}
	// A full TRedirect frame survives encode/decode with the payload intact,
	// and pre-cluster frame types are untouched by the new type values.
	f := Frame{Type: TRedirect, Svc: SvcDedup, Tenant: 7, Seq: 3,
		Payload: AppendRedirectInfo(nil, 100*time.Millisecond, "127.0.0.1:7071")}
	enc := Append(nil, f)
	got, _, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	after, addr := ParseRedirectInfo(got.Payload)
	if got.Type != TRedirect || addr != "127.0.0.1:7071" || after != 100*time.Millisecond {
		t.Errorf("decoded redirect = %+v (after %v, addr %q)", got, after, addr)
	}
	// Tolerant parses: empty and truncated payloads yield zero values.
	if after, addr := ParseRedirectInfo(nil); after != 0 || addr != "" {
		t.Errorf("empty payload = (%v, %q)", after, addr)
	}
	if after, addr := ParseRedirectInfo(enc[:3]); after != 0 && addr != "" {
		t.Errorf("truncated payload = (%v, %q)", after, addr)
	}
}

func TestReadRaw(t *testing.T) {
	a := Frame{Type: TData, Svc: SvcDedup, Tenant: 1, Seq: 1, Payload: []byte("first")}
	b := Frame{Type: TGossip, Seq: 2, Payload: []byte("membership table")}
	stream := Append(Append(nil, a), b)
	r := bytes.NewReader(stream)

	_, rawA, err := ReadRaw(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawA, Append(nil, a)) {
		t.Fatal("raw frame bytes differ from the encoding")
	}
	gotA, n, err := Decode(rawA)
	if err != nil || n != len(rawA) {
		t.Fatalf("decode raw: n=%d err=%v", n, err)
	}
	if gotA.Type != TData || !bytes.Equal(gotA.Payload, a.Payload) {
		t.Fatalf("decoded %+v", gotA)
	}
	_, rawB, err := ReadRaw(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if gotB, _, err := Decode(rawB); err != nil || gotB.Type != TGossip || gotB.Seq != 2 {
		t.Fatalf("second frame: %+v err=%v", gotB, err)
	}
	// Clean boundary → io.EOF verbatim.
	if _, _, err := ReadRaw(r, 0); err != io.EOF {
		t.Fatalf("at stream end: %v, want io.EOF", err)
	}
	// Mid-frame truncation is a framing error, not EOF.
	tr := bytes.NewReader(stream[:len(stream)-3])
	if _, _, err := ReadRaw(tr, 0); err != nil {
		t.Fatalf("first frame of truncated stream: %v", err)
	}
	if _, _, err := ReadRaw(tr, 0); err == nil || err == io.EOF || !errors.Is(err, ErrFrame) {
		t.Fatalf("truncated frame: %v, want ErrFrame", err)
	}
	// A hostile length never allocates past the cap.
	hostile := make([]byte, 4)
	binary.BigEndian.PutUint32(hostile, 1<<31)
	if _, _, err := ReadRaw(bytes.NewReader(hostile), 1<<10); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("hostile length: %v, want ErrTooLarge", err)
	}
	// The cap is exact, as Reader.Next holds it: the room the length check
	// leaves for a deadline extension lets no larger payload through, and a
	// deadline-flagged frame at the cap passes.
	for _, n := range []int{1025, 1032} {
		raw := Append(nil, Frame{Type: TStore, Payload: make([]byte, n)})
		if _, _, err := ReadRaw(bytes.NewReader(raw), 1<<10); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%d-byte payload under a 1024-byte cap: %v, want ErrTooLarge", n, err)
		}
	}
	atCap := Append(nil, Frame{Type: TStore, Deadline: time.Second, Payload: make([]byte, 1<<10)})
	if _, _, err := ReadRaw(bytes.NewReader(atCap), 1<<10); err != nil {
		t.Errorf("deadline-flagged frame at the cap: %v", err)
	}
}
