// Package dedup reimplements PARSEC's Dedup benchmark with the paper's
// modifications (§IV-B): the input is cut into fixed 1 MB batches; Rabin
// fingerprinting runs on the CPU and yields the startPos block boundaries
// inside each batch (Fig. 2); blocks are SHA-1-fingerprinted and checked
// against a duplicate store; non-duplicate blocks are LZSS-compressed; an
// ordered final stage writes the archive. CPU pipelines run for real on
// the SPar DSL; the GPU-offloaded variants are modelled by
// internal/bench on the simulated device using the same building blocks.
package dedup

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"streamgpu/internal/lzss"
	"streamgpu/internal/sha1x"
)

// magic identifies the archive format.
var magic = []byte("SGDD1\x00")

// Record tags in the archive stream.
const (
	recUnique = 'U' // compressed unique block
	recRaw    = 'R' // stored (incompressible) unique block
	recDup    = 'D' // reference to an earlier unique block
)

// Stats summarizes one compression run.
type Stats struct {
	RawBytes     int64
	WrittenBytes int64
	UniqueBlocks int64
	DupBlocks    int64
	// FallbackCompressions counts blocks the writer had to compress inline
	// because the stream-order first occurrence lost the processing-time
	// race (see Writer).
	FallbackCompressions int64
}

// Ratio reports raw/written.
func (s Stats) Ratio() float64 {
	if s.WrittenBytes == 0 {
		return 0
	}
	return float64(s.RawBytes) / float64(s.WrittenBytes)
}

// Writer emits the archive. It must see every block exactly once, in
// original stream order; it owns the authoritative duplicate decision
// (hash already written → reference, else → data), which makes the output
// deterministic regardless of how upstream stages raced on the shared
// duplicate-store hint.
type Writer struct {
	w       *bufio.Writer
	written map[[sha1x.Size]byte]uint64
	next    uint64
	stats   Stats
	started bool
	// Inline-fallback compression state, lazily created: the matcher's
	// tables and the output scratch are reused across blocks so the
	// sequential path (which always compresses inline) stays allocation-free
	// once warm.
	m       *lzss.Matcher
	scratch []byte
	// hdr is writeRecord's scratch: a local array would escape through
	// bufio.Writer.Write and cost one allocation per record.
	hdr [1 + binary.MaxVarintLen64]byte
}

// NewWriter creates an archive writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), written: make(map[[sha1x.Size]byte]uint64)}
}

// WriteBlock writes one block in stream order. comp is the block's LZSS
// compression if an upstream stage prepared it (nil if the block was judged
// duplicate upstream); the writer compresses inline when it needs data it
// was not given.
func (dw *Writer) WriteBlock(hash [sha1x.Size]byte, raw []byte, comp []byte) error {
	if !dw.started {
		if _, err := dw.w.Write(magic); err != nil {
			return err
		}
		dw.started = true
	}
	dw.stats.RawBytes += int64(len(raw))
	if id, ok := dw.written[hash]; ok {
		dw.stats.DupBlocks++
		n, err := dw.writeRecord(recDup, id, nil)
		dw.stats.WrittenBytes += int64(n)
		return err
	}
	if comp == nil {
		if dw.m == nil {
			dw.m = lzss.NewMatcher()
		}
		dw.scratch = dw.m.AppendCompress(dw.scratch[:0], raw)
		comp = dw.scratch
		dw.stats.FallbackCompressions++
	}
	dw.written[hash] = dw.next
	dw.next++
	dw.stats.UniqueBlocks++
	var n int
	var err error
	if len(comp) < len(raw) {
		n, err = dw.writeRecord(recUnique, uint64(len(comp)), comp)
	} else {
		n, err = dw.writeRecord(recRaw, uint64(len(raw)), raw)
	}
	dw.stats.WrittenBytes += int64(n)
	return err
}

// writeRecord emits tag + uvarint + optional payload, returning bytes
// written.
func (dw *Writer) writeRecord(tag byte, v uint64, payload []byte) (int, error) {
	dw.hdr[0] = tag
	n := 1 + binary.PutUvarint(dw.hdr[1:], v)
	if _, err := dw.w.Write(dw.hdr[:n]); err != nil {
		return 0, err
	}
	if payload != nil {
		if _, err := dw.w.Write(payload); err != nil {
			return 0, err
		}
	}
	return n + len(payload), nil
}

// Close flushes the archive. The writer cannot be used afterwards.
func (dw *Writer) Close() error {
	if !dw.started {
		if _, err := dw.w.Write(magic); err != nil {
			return err
		}
		dw.started = true
	}
	return dw.w.Flush()
}

// Stats returns the accumulated statistics.
func (dw *Writer) Stats() Stats { return dw.stats }

// ErrFormat reports a malformed archive.
var ErrFormat = errors.New("dedup: bad archive")

// readExactCapped appends exactly v bytes from r to dst[:0], growing the
// buffer in bounded steps: a corrupted length field can therefore only cost
// an allocation proportional to the bytes actually present in the stream
// (at most 2x + one step), never the claimed v, before ReadFull reports the
// truncation.
func readExactCapped(r io.Reader, dst []byte, v uint64) ([]byte, error) {
	const step = 64 << 10
	if uint64(cap(dst)) >= v {
		dst = dst[:v]
		_, err := io.ReadFull(r, dst)
		return dst, err
	}
	dst = dst[:0]
	for uint64(len(dst)) < v {
		n := step
		if rem := v - uint64(len(dst)); rem < step {
			n = int(rem)
		}
		if cap(dst)-len(dst) < n {
			grown := make([]byte, len(dst), len(dst)*2+n)
			copy(grown, dst)
			dst = grown
		}
		m, err := io.ReadFull(r, dst[len(dst):len(dst)+n])
		dst = dst[:len(dst)+m]
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// Restore decompresses an archive back to the original stream.
func Restore(r io.Reader, w io.Writer) error {
	br := bufio.NewReaderSize(r, 1<<16)
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return fmt.Errorf("%w: missing magic: %v", ErrFormat, err)
	}
	for i := range magic {
		if got[i] != magic[i] {
			return fmt.Errorf("%w: wrong magic", ErrFormat)
		}
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var blocks [][]byte
	var comp []byte // reused across records: decoded blocks copy out of it
	for {
		tag, err := br.ReadByte()
		if err == io.EOF {
			return bw.Flush()
		}
		if err != nil {
			return err
		}
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("%w: truncated record: %v", ErrFormat, err)
		}
		switch tag {
		case recUnique:
			comp, err = readExactCapped(br, comp, v)
			if err != nil {
				return fmt.Errorf("%w: truncated block: %v", ErrFormat, err)
			}
			raw, err := lzss.Decompress(comp)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrFormat, err)
			}
			blocks = append(blocks, raw)
			if _, err := bw.Write(raw); err != nil {
				return err
			}
		case recRaw:
			raw, err := readExactCapped(br, nil, v)
			if err != nil {
				return fmt.Errorf("%w: truncated raw block: %v", ErrFormat, err)
			}
			blocks = append(blocks, raw)
			if _, err := bw.Write(raw); err != nil {
				return err
			}
		case recDup:
			if v >= uint64(len(blocks)) {
				return fmt.Errorf("%w: reference %d to unwritten block (%d known)", ErrFormat, v, len(blocks))
			}
			if _, err := bw.Write(blocks[v]); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unknown record tag %q", ErrFormat, tag)
		}
	}
}
