// Package wire is the streaming service's binary frame protocol: a
// length-prefixed codec carrying a frame type, the target service, a tenant
// ID, a request sequence number, and an opaque payload.
//
// The framing is deliberately minimal — FastFlow's argument (TR-09-12) is
// that sustained streaming lives or dies on per-item overhead, so the header
// is a fixed 18 bytes with no varints and no reflection, and decoding is
// zero-copy: Decode and Reader.Next return payloads that alias the input
// buffer. The length prefix is validated against a payload cap *before* any
// allocation, so a corrupted or hostile length field can never over-allocate
// (the contract the FuzzFrameDecode target enforces).
//
// Layout, all integers big-endian:
//
//	u32  length   // bytes after this field: 14 + [8] + len(payload)
//	u8   type     // Type (low 7 bits) | flags (bit 7: deadline present)
//	u8   svc      // Svc
//	u32  tenant
//	u64  seq
//	[u64 deadline] // only when bit 7 of the type byte is set: relative
//	               // deadline in nanoseconds (Frame.Deadline)
//	...  payload
//
// Versioning: the codec's v1 layout had no deadline and a bare type byte.
// v2 carries the optional deadline behind a flag bit in the type byte, so
// every frame a v2 encoder emits *without* a deadline is byte-identical to
// v1 — old clients keep decoding everything a server sends them (servers
// never send deadlines; the reject reason and retry-after hint ride the
// TReject payload, which v1 clients ignore). A v1 decoder handed a
// deadline-flagged frame fails fast with an unknown-type error rather than
// misparsing, and the length prefix still covers the extension, so framing
// never desynchronizes across versions.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// Type discriminates frames.
type Type uint8

// Frame types. Client→server frames carry request payloads and stream
// control; server→client frames carry results and admission verdicts.
const (
	// TData (client→server) is one request: Seq identifies it and the
	// payload is the request body (stream bytes for SvcDedup, an encoded
	// row-range request for SvcMandel).
	TData Type = 1
	// TFlush (client→server) asks the server to seal and submit the
	// session's partially filled batch immediately instead of waiting for
	// the linger deadline.
	TFlush Type = 2
	// TEnd ends the stream. Client→server it means "no more requests: flush
	// everything"; the server answers with a final TEnd after the last
	// result frame, then closes.
	TEnd Type = 3
	// TResult (server→client) completes request Seq. For SvcDedup the
	// payload is the archive bytes produced since the previous result frame
	// on this session; for SvcMandel it is the computed pixel rows.
	TResult Type = 4
	// TReject (server→client) fast-fails request Seq: the request was
	// dropped unprocessed. The payload, when present, is a RejectInfo
	// (one-byte Reason plus a retry-after hint); v1 servers send it empty
	// and v1 clients ignore it either way.
	TReject Type = 5
	// TError (server→client) reports a fatal session error; the payload is
	// a human-readable message and the connection closes after it.
	TError Type = 6
	// TRedirect (server→client) is the cluster routing verdict: this node
	// does not own the request's tenant, and the payload is a RejectInfo
	// (reason ReasonRedirect) followed by the owning node's dial address.
	// Clients re-dial the address and re-offer the request there; v1 clients
	// never see it because single-node servers never send it.
	TRedirect Type = 7
	// TGossip (node→node) carries one SWIM membership message (ping, ack, or
	// indirect ping request) between cluster nodes; the payload encoding is
	// internal/cluster's.
	TGossip Type = 8
	// TStore (node→node) is one cluster-store RPC (hash query, block fetch,
	// block put) between cluster nodes; the payload's first byte is the
	// subtype, defined by internal/cluster.
	TStore Type = 9
)

// String names the frame type.
func (t Type) String() string {
	switch t {
	case TData:
		return "data"
	case TFlush:
		return "flush"
	case TEnd:
		return "end"
	case TResult:
		return "result"
	case TReject:
		return "reject"
	case TError:
		return "error"
	case TRedirect:
		return "redirect"
	case TGossip:
		return "gossip"
	case TStore:
		return "store"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Svc selects the resident pipeline a frame targets.
type Svc uint8

// The two services streamd exposes.
const (
	// SvcDedup streams bytes through the shared Dedup compression pipeline.
	SvcDedup Svc = 1
	// SvcMandel computes Mandelbrot row ranges on the shared farm.
	SvcMandel Svc = 2
)

// String names the service.
func (s Svc) String() string {
	switch s {
	case SvcDedup:
		return "dedup"
	case SvcMandel:
		return "mandel"
	}
	return fmt.Sprintf("Svc(%d)", uint8(s))
}

// Frame is one protocol message.
type Frame struct {
	Type   Type
	Svc    Svc
	Tenant uint32
	Seq    uint64
	// Deadline is the request's relative service budget: the client asks
	// the server to answer within this long or fast-fail. Zero (or
	// negative) means "no deadline" and encodes in the v1 layout; positive
	// values set the deadline flag bit and append the extension word.
	// Server→client frames never carry a deadline.
	Deadline time.Duration
	Payload  []byte
}

// Header and limit constants.
const (
	// headerLen is the fixed byte count after the length prefix.
	headerLen = 1 + 1 + 4 + 8
	// extLen is the deadline extension appended to the header when the
	// type byte's flagDeadline bit is set.
	extLen = 8
	// prefixLen is the length prefix itself.
	prefixLen = 4
	// flagDeadline in the type byte marks a header carrying the deadline
	// extension. Frame types themselves stay in the low 7 bits.
	flagDeadline = 0x80
	// DefaultMaxPayload caps payloads at the Dedup batch size: one request
	// fills at most one batch, so admission counts requests and batches
	// interchangeably.
	DefaultMaxPayload = 1 << 20
)

// hdrLen returns the post-prefix header size for a frame with or without
// the deadline extension.
func hdrLen(withDeadline bool) int {
	if withDeadline {
		return headerLen + extLen
	}
	return headerLen
}

// Reason is the one-byte code a TReject frame carries explaining the
// fast-fail, so clients can distinguish "back off" from "lower your load"
// from "shorten your deadline".
type Reason uint8

// Reject reasons.
const (
	// ReasonNone is the zero value: the server predates reasons (a v1
	// TReject with an empty payload) or did not specify one.
	ReasonNone Reason = 0
	// ReasonOverload: the shared admission window is full.
	ReasonOverload Reason = 1
	// ReasonDeadline: the queue-wait estimate already exceeded the
	// request's deadline, so processing it would be wasted work.
	ReasonDeadline Reason = 2
	// ReasonQuarantine: capacity is degraded because one or more devices
	// are quarantined and their work is rerouted to slower paths.
	ReasonQuarantine Reason = 3
	// ReasonThrottled: the tenant exhausted its own token bucket or fair
	// share — other tenants are unaffected.
	ReasonThrottled Reason = 4
	// ReasonRedirect: the node answering does not own the request's tenant on
	// the cluster's consistent-hash ring; the owning node's address follows
	// the RejectInfo in the payload (TRedirect frames only).
	ReasonRedirect Reason = 5
)

// String names the reject reason; used as the metrics label value.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonOverload:
		return "overload"
	case ReasonDeadline:
		return "deadline"
	case ReasonQuarantine:
		return "quarantine"
	case ReasonThrottled:
		return "tenant-throttled"
	case ReasonRedirect:
		return "redirect"
	}
	return fmt.Sprintf("Reason(%d)", uint8(r))
}

// rejectInfoLen is the encoded size of a RejectInfo payload.
const rejectInfoLen = 1 + 8

// AppendRejectInfo encodes a TReject payload: the reason byte followed by a
// big-endian retry-after hint in nanoseconds (how long the client should
// back off before retrying; 0 means "no hint, use your own backoff").
func AppendRejectInfo(dst []byte, reason Reason, retryAfter time.Duration) []byte {
	var buf [rejectInfoLen]byte
	buf[0] = byte(reason)
	if retryAfter > 0 {
		binary.BigEndian.PutUint64(buf[1:], uint64(retryAfter))
	}
	return append(dst, buf[:]...)
}

// ParseRejectInfo decodes a TReject payload tolerantly: an empty or short
// payload (a v1 server, or a truncated hint) yields ReasonNone and a zero
// retry-after rather than an error, and a negative or absurd hint is clamped
// to zero — a hostile server must never be able to park a client forever.
func ParseRejectInfo(payload []byte) (Reason, time.Duration) {
	if len(payload) < 1 {
		return ReasonNone, 0
	}
	reason := Reason(payload[0])
	if len(payload) < rejectInfoLen {
		return reason, 0
	}
	d := binary.BigEndian.Uint64(payload[1:])
	if d > uint64(math.MaxInt64) {
		return reason, 0
	}
	return reason, time.Duration(d)
}

// AppendRedirectInfo encodes a TRedirect payload: a RejectInfo with reason
// ReasonRedirect (the new reason byte; the retry-after hint tells the client
// how long to wait before re-dialing when the ring is still converging)
// followed by the owning node's dial address.
func AppendRedirectInfo(dst []byte, retryAfter time.Duration, addr string) []byte {
	dst = AppendRejectInfo(dst, ReasonRedirect, retryAfter)
	return append(dst, addr...)
}

// ParseRedirectInfo decodes a TRedirect payload tolerantly, mirroring
// ParseRejectInfo: a short payload yields an empty address (the client falls
// back to its own node list), and the hint is clamped like a reject hint.
func ParseRedirectInfo(payload []byte) (retryAfter time.Duration, addr string) {
	_, retryAfter = ParseRejectInfo(payload)
	if len(payload) > rejectInfoLen {
		addr = string(payload[rejectInfoLen:])
	}
	return retryAfter, addr
}

// Protocol errors.
var (
	// ErrFrame reports a malformed frame.
	ErrFrame = errors.New("wire: bad frame")
	// ErrTooLarge reports a frame whose declared payload exceeds the
	// reader's cap. It wraps ErrFrame.
	ErrTooLarge = fmt.Errorf("%w: payload too large", ErrFrame)
)

// Append encodes f and appends it to dst, returning the extended slice.
func Append(dst []byte, f Frame) []byte {
	hl := hdrLen(f.Deadline > 0)
	var hdr [prefixLen + headerLen + extLen]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(hl+len(f.Payload)))
	tb := byte(f.Type) &^ flagDeadline
	if f.Deadline > 0 {
		tb |= flagDeadline
	}
	hdr[4] = tb
	hdr[5] = byte(f.Svc)
	binary.BigEndian.PutUint32(hdr[6:], f.Tenant)
	binary.BigEndian.PutUint64(hdr[10:], f.Seq)
	if f.Deadline > 0 {
		binary.BigEndian.PutUint64(hdr[prefixLen+headerLen:], uint64(f.Deadline))
	}
	dst = append(dst, hdr[:prefixLen+hl]...)
	return append(dst, f.Payload...)
}

// EncodedLen reports the wire size of f.
func EncodedLen(f Frame) int {
	return prefixLen + hdrLen(f.Deadline > 0) + len(f.Payload)
}

// decodeHeader parses the post-prefix header bytes (which must span the full
// header including any extension) into f, returning the total header length.
// A flagged deadline with the sign bit set is rejected: it cannot represent a
// positive time.Duration, so it is hostile or corrupt by construction.
func decodeHeader(hdr []byte) (Frame, int, error) {
	tb := hdr[0]
	f := Frame{
		Type:   Type(tb &^ flagDeadline),
		Svc:    Svc(hdr[1]),
		Tenant: binary.BigEndian.Uint32(hdr[2:]),
		Seq:    binary.BigEndian.Uint64(hdr[6:]),
	}
	if tb&flagDeadline == 0 {
		return f, headerLen, nil
	}
	d := binary.BigEndian.Uint64(hdr[headerLen:])
	if d == 0 || d > uint64(math.MaxInt64) {
		return Frame{}, 0, fmt.Errorf("%w: deadline %#x out of range", ErrFrame, d)
	}
	f.Deadline = time.Duration(d)
	return f, headerLen + extLen, nil
}

// Decode parses one frame from the front of b without copying: the returned
// frame's payload aliases b. It returns the number of bytes consumed.
// Decode never allocates, so no length field in b can cause memory growth.
func Decode(b []byte) (Frame, int, error) {
	if len(b) < prefixLen+headerLen {
		return Frame{}, 0, fmt.Errorf("%w: %d bytes, need at least %d", ErrFrame, len(b), prefixLen+headerLen)
	}
	n := binary.BigEndian.Uint32(b)
	if n < headerLen {
		return Frame{}, 0, fmt.Errorf("%w: declared length %d below header size", ErrFrame, n)
	}
	if uint64(n) > uint64(len(b)-prefixLen) {
		return Frame{}, 0, fmt.Errorf("%w: declared length %d exceeds buffer %d", ErrFrame, n, len(b)-prefixLen)
	}
	hl := hdrLen(b[4]&flagDeadline != 0)
	if int(n) < hl {
		return Frame{}, 0, fmt.Errorf("%w: declared length %d below extended header size %d", ErrFrame, n, hl)
	}
	f, hl, err := decodeHeader(b[prefixLen : prefixLen+hl])
	if err != nil {
		return Frame{}, 0, err
	}
	if int(n) > hl {
		f.Payload = b[prefixLen+hl : prefixLen+n]
	}
	return f, prefixLen + int(n), nil
}

// ReadRaw reads one complete frame from r, enforcing the payload cap before
// allocating (<= 0 selects DefaultMaxPayload), and returns it decoded beside
// its raw bytes, length prefix included. The cluster router uses it to
// inspect and then replay or forward a frame byte-for-byte: the raw slice
// writes back out verbatim, and the frame's payload aliases it. Each call
// allocates a fresh slice. io.EOF is returned verbatim at a clean frame
// boundary.
func ReadRaw(r io.Reader, maxPayload int) (Frame, []byte, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	return readFrame(r, nil, maxPayload)
}

// readFrame is the one stream read path behind ReadRaw and Reader.Next. It
// reads the length prefix into buf, checks the declared length against the
// cap before anything is allocated, reads the rest of the frame with one
// io.ReadFull into buf (reallocated when its capacity is short), and decodes
// it with Decode. The length check leaves room for a deadline extension;
// with the type byte known the payload cap is exact. It returns the frame
// and buf holding the raw frame bytes.
func readFrame(r io.Reader, buf []byte, maxPayload int) (Frame, []byte, error) {
	if cap(buf) < prefixLen {
		buf = make([]byte, prefixLen)
	}
	buf = buf[:prefixLen]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			return Frame{}, buf, io.EOF
		}
		return Frame{}, buf, fmt.Errorf("%w: truncated length prefix: %v", ErrFrame, err)
	}
	n := binary.BigEndian.Uint32(buf)
	if n < headerLen {
		return Frame{}, buf, fmt.Errorf("%w: declared length %d below header size", ErrFrame, n)
	}
	if int64(n)-headerLen > int64(maxPayload)+extLen {
		return Frame{}, buf, fmt.Errorf("%w: payload %d exceeds cap %d", ErrTooLarge, n-headerLen, maxPayload)
	}
	size := prefixLen + int(n)
	if cap(buf) < size {
		buf = append(make([]byte, 0, size), buf...)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(r, buf[prefixLen:]); err != nil {
		return Frame{}, buf, fmt.Errorf("%w: truncated frame: %v", ErrFrame, err)
	}
	f, _, err := Decode(buf)
	if err != nil {
		return Frame{}, buf, err
	}
	if len(f.Payload) > maxPayload {
		return Frame{}, buf, fmt.Errorf("%w: payload %d exceeds cap %d", ErrTooLarge, len(f.Payload), maxPayload)
	}
	return f, buf, nil
}

// Writer serializes frames onto an io.Writer. Not safe for concurrent use;
// callers serialize with their own lock.
type Writer struct {
	w   *bufio.Writer
	buf []byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write encodes f. The frame is buffered; call Flush to push it to the
// connection.
func (fw *Writer) Write(f Frame) error {
	fw.buf = Append(fw.buf[:0], f)
	_, err := fw.w.Write(fw.buf)
	return err
}

// Flush pushes buffered frames to the underlying writer.
func (fw *Writer) Flush() error { return fw.w.Flush() }

// Reader decodes frames from an io.Reader. The payload cap is enforced
// before the payload is read, so a corrupt length prefix fails fast instead
// of allocating. Frames returned by Next share one internal buffer: each
// call invalidates the previous frame's payload.
type Reader struct {
	r   *bufio.Reader
	max int
	buf []byte
}

// NewReader wraps r with the given payload cap (<= 0 selects
// DefaultMaxPayload).
func NewReader(r io.Reader, maxPayload int) *Reader {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	return &Reader{r: bufio.NewReaderSize(r, 1<<16), max: maxPayload}
}

// Peek blocks until at least one byte is available without consuming it,
// returning any underlying read error verbatim (io.EOF, net timeouts).
// Servers poll with a short read deadline here — a deadline that expires
// during Peek leaves the stream intact, unlike one expiring inside Next,
// which would strand a half-read frame.
func (fr *Reader) Peek() error {
	_, err := fr.r.Peek(1)
	return err
}

// Buffered reports how many bytes of later frames the reader's 64 KiB buffer
// holds: bytes read from the connection that no Next has consumed yet. It
// is a lower bound on what has arrived. Once the buffer is drained, a read
// of 64 KiB or more goes straight into the payload and stops at the
// frame's end, so a successor still in the connection is not counted.
func (fr *Reader) Buffered() int { return fr.r.Buffered() }

// Next reads one frame. io.EOF is returned verbatim at a clean frame
// boundary; a partial frame returns an ErrFrame-wrapped error.
func (fr *Reader) Next() (Frame, error) {
	f, buf, err := readFrame(fr.r, fr.buf, fr.max)
	fr.buf = buf
	return f, err
}
