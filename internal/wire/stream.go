package wire

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strings"

	"ldv/internal/bin"
	"ldv/internal/sqlval"
)

// Frames in bulk. A server streams a result as many frames into one
// bufio.Writer, and a client reads a response group of many frames; both
// ends move those frames through buffers they keep, so that a result's rows
// cost no allocation each. The frames are the ones Write and Read move.

// WriteBuffered writes m's frame into w's buffer in place — flushing w
// first when the frame does not fit in what is left of it — so the frame
// takes no buffer of its own. Only a frame larger than w's whole buffer is
// encoded into a slice of exactly its size, which w writes through.
func WriteBuffered(w *bufio.Writer, m Message) error {
	n, err := writeInPlace(w, m.tag(), payloadLen(m), func(b []byte) []byte { return appendPayload(b, m) })
	if err == nil {
		recordOut(m.tag(), 1, n)
	}
	return err
}

// WriteDataRows writes a DataRow frame per row as WriteBuffered would,
// straight from the row's values: what a server streaming a result calls,
// at no allocation per row.
func WriteDataRows(w *bufio.Writer, rows [][]sqlval.Value) error {
	total := 0
	for i, row := range rows {
		n, err := writeInPlace(w, TagDataRow, sqlval.EncodedRowLen(row), func(b []byte) []byte {
			return sqlval.EncodeRow(b, row)
		})
		if err != nil {
			recordOut(TagDataRow, i, total)
			return err
		}
		total += n
	}
	recordOut(TagDataRow, len(rows), total)
	return nil
}

// writeInPlace writes a frame of size payload bytes, which payload appends,
// into w's spare buffer, and returns the frame's length.
func writeInPlace(w *bufio.Writer, tag byte, size int, payload func([]byte) []byte) (int, error) {
	n := headerLen + size
	if n > w.Available() && w.Buffered() > 0 {
		if err := w.Flush(); err != nil {
			return 0, fmt.Errorf("wire write: %w", err)
		}
	}
	var b []byte
	if n <= w.Available() {
		b = w.AvailableBuffer()
	} else {
		b = make([]byte, 0, n)
	}
	b = appendFrame(b, tag, payload)
	if _, err := w.Write(b); err != nil {
		return 0, fmt.Errorf("wire write: %w", err)
	}
	return len(b), nil
}

// A Reader's row bytes live in chunks of rowChunk bytes (a row larger than
// that gets a chunk of its own size), so that a group of any size costs its
// bytes once instead of a buffer's doublings; chunks summing to maxKept
// bytes are kept from one group to the next, and so is a frame buffer of
// at most maxKept bytes.
const (
	rowChunk = 64 << 10
	maxKept  = 256 << 10
)

// Reader reads the frames of one connection through buffers it keeps. A
// frame's payload is read into one reused buffer and decoded from there —
// except a Provenance frame, whose version set keeps the frame's bytes and
// so is read into a slice of its own. A DataRow's payload is checked and
// appended to the rows of the group at hand, and Rows decodes them all at
// once: one []sqlval.Value slab, one [][]sqlval.Value, and one string that
// every TEXT value is a substring of. So a group's rows cost no allocation
// each. Nothing a Reader returns aliases its buffers. The zero Reader is
// ready to use; it is not safe for concurrent use.
type Reader struct {
	header [headerLen]byte
	frame  []byte   // the payload of the frame at hand
	chunks [][]byte // the group's DataRow payloads, back to back, in chunks[:used]
	used   int
	nrows  int // DataRow frames read since the last Reset
	nvals  int // values those rows hold
	nbytes int // bytes those rows take
}

// rowKept is what Read returns for a DataRow, boxed once.
var rowKept Message = DataRow{}

// Read reads the next frame from r and returns it as Read would, but a
// DataRow, which is returned without its values: they are kept for Rows.
// Errors are those of Read; a caller that goes on after one Resets first.
func (fr *Reader) Read(r io.Reader) (Message, error) {
	if _, err := io.ReadFull(r, fr.header[:]); err != nil {
		return nil, err
	}
	size, err := payloadSize(fr.header)
	if err != nil {
		return nil, err
	}
	tag := fr.header[0]
	switch tag {
	case TagDataRow:
		row := fr.room(size)
		if _, err := io.ReadFull(r, row); err != nil {
			return nil, fmt.Errorf("wire read payload: %w", err)
		}
		// Read's check of the payload: exactly one row image.
		n, err := sqlval.SkipRow(row)
		if err == nil && n != size {
			err = fmt.Errorf("%d bytes after the row", size-n)
		}
		if err != nil {
			return nil, fmt.Errorf("wire decode %q: %w", tag, err)
		}
		fr.nrows++
		fr.nvals += int(bin.NewReader(row).Uvarint())
		fr.nbytes += size
		return rowKept, nil
	case TagProvenance:
		payload := make([]byte, size)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("wire read payload: %w", err)
		}
		return decode(tag, payload)
	}
	fr.frame = slices.Grow(fr.frame[:0], size)[:size]
	if _, err := io.ReadFull(r, fr.frame); err != nil {
		return nil, fmt.Errorf("wire read payload: %w", err)
	}
	m, err := decode(tag, fr.frame)
	if cap(fr.frame) > maxKept {
		fr.frame = nil
	}
	return m, err
}

// room returns the next size bytes of the group's row chunks, taking a new
// chunk — a kept one when it is large enough — when the last has no room.
func (fr *Reader) room(size int) []byte {
	if fr.used > 0 {
		c := fr.chunks[fr.used-1]
		if cap(c)-len(c) >= size {
			fr.chunks[fr.used-1] = c[:len(c)+size]
			return c[len(c) : len(c)+size]
		}
	}
	if fr.used == len(fr.chunks) {
		fr.chunks = append(fr.chunks, nil)
	}
	if cap(fr.chunks[fr.used]) < size {
		fr.chunks[fr.used] = make([]byte, 0, max(rowChunk, size))
	}
	c := fr.chunks[fr.used][:size]
	fr.chunks[fr.used] = c
	fr.used++
	return c
}

// Rows decodes the DataRows read since the last Rows or Reset, in order,
// and forgets them; nil when there were none. Every row is a full slice of
// one slab (appending to one reallocates it), and an application that
// keeps one row keeps the group's slab and TEXT string.
func (fr *Reader) Rows() ([][]sqlval.Value, error) {
	defer fr.Reset()
	if fr.nrows == 0 {
		return nil, nil
	}
	var sb strings.Builder
	sb.Grow(fr.nbytes)
	for _, c := range fr.chunks[:fr.used] {
		sb.Write(c)
	}
	text := sb.String()
	vals := make([]sqlval.Value, 0, fr.nvals)
	rows := make([][]sqlval.Value, 0, fr.nrows)
	base := 0 // where the chunk at hand starts in text
	for _, c := range fr.chunks[:fr.used] {
		for off := 0; off < len(c); {
			from := len(vals)
			var (
				n   int
				err error
			)
			// Read checked each row, so this decode cannot fail but by a bug.
			if vals, n, err = sqlval.AppendDecodeRow(vals, c[off:], text[base+off:base+len(c)]); err != nil {
				return nil, fmt.Errorf("wire decode %q: %w", TagDataRow, err)
			}
			rows = append(rows, vals[from:len(vals):len(vals)])
			off += n
		}
		base += len(c)
	}
	return rows, nil
}

// Reset forgets the DataRows read since the last Rows — a group abandoned
// on an error — and counts them as read.
func (fr *Reader) Reset() {
	if fr.nrows > 0 {
		recordIn(TagDataRow, fr.nrows, fr.nrows*headerLen+fr.nbytes)
	}
	fr.used, fr.nrows, fr.nvals, fr.nbytes = 0, 0, 0, 0
	kept := 0
	for i, c := range fr.chunks {
		if kept += cap(c); kept > maxKept {
			clear(fr.chunks[i:])
			fr.chunks = fr.chunks[:i]
			break
		}
		fr.chunks[i] = c[:0]
	}
}
