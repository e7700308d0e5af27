package dedup

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"streamgpu/internal/core"
	"streamgpu/internal/lzss"
)

// restoreItem is one archive record flowing through the parallel restore
// pipeline.
type restoreItem struct {
	tag  byte
	data []byte // compressed (recUnique) or raw (recRaw) payload
	ref  uint64 // recDup only
	// out is filled by the decompress stage for recUnique records.
	out []byte
	err error
}

// RestoreParallel decompresses an archive with a SPar pipeline: a serial
// reader (records must be walked in order to find their boundaries), a
// replicated LZSS-decompress stage, and a serial in-order writer that also
// resolves duplicate references — the mirror image of the compression
// pipeline, as PARSEC ships for its dedup benchmark.
func RestoreParallel(r io.Reader, w io.Writer, workers int) error {
	if workers < 1 {
		workers = 1
	}
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
	var writeErr error
	var readErr error

	ts := core.NewToStream().
		Stage(func(item any, emit func(any)) {
			it := item.(*restoreItem)
			if it.tag == recUnique {
				it.out, it.err = lzss.Decompress(it.data)
			}
			emit(it)
		}, core.Replicate(workers), core.Name("decompress")).
		Stage(func(item any, emit func(any)) {
			if writeErr != nil {
				return
			}
			it := item.(*restoreItem)
			switch {
			case it.err != nil:
				writeErr = fmt.Errorf("%w: %v", ErrFormat, it.err)
			case it.tag == recDup:
				if it.ref >= uint64(len(blocks)) {
					writeErr = fmt.Errorf("%w: reference %d to unwritten block (%d known)", ErrFormat, it.ref, len(blocks))
					return
				}
				_, writeErr = bw.Write(blocks[it.ref])
			case it.tag == recRaw:
				blocks = append(blocks, it.data)
				_, writeErr = bw.Write(it.data)
			default: // recUnique
				blocks = append(blocks, it.out)
				_, writeErr = bw.Write(it.out)
			}
		}, core.Name("reorder+write"))

	err := ts.Run(func(emit func(any)) {
		for {
			tag, err := br.ReadByte()
			if err == io.EOF {
				return
			}
			if err != nil {
				readErr = err
				return
			}
			v, err := binary.ReadUvarint(br)
			if err != nil {
				readErr = fmt.Errorf("%w: truncated record: %v", ErrFormat, err)
				return
			}
			it := &restoreItem{tag: tag}
			switch tag {
			case recUnique, recRaw:
				it.data, err = readExactCapped(br, nil, v)
				if err != nil {
					readErr = fmt.Errorf("%w: truncated block: %v", ErrFormat, err)
					return
				}
			case recDup:
				it.ref = v
			default:
				readErr = fmt.Errorf("%w: unknown record tag %q", ErrFormat, tag)
				return
			}
			emit(it)
		}
	})
	if err == nil {
		err = readErr
	}
	if err == nil {
		err = writeErr
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}
