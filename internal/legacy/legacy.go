package legacy

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"loggrep/internal/archive"
	"loggrep/internal/capsule"
	"loggrep/internal/core"
)

// block is one block of an input: its box, the line it starts at, and the
// line count its frame records (-1 for a bare box, which has no frame).
type block struct {
	box       []byte
	firstLine int
	lines     int
}

// Restore writes the text of data — a v1 or v2 archive whose boxes are of
// any revision, or a bare box of any revision — to w, block by block, each
// line ending in '\n'. Every retired box is re-packed as a current one and
// restored by core; a current one is restored as it is. Nothing is
// salvaged: the first structural fault, payload checksum mismatch or
// undecodable block fails it.
func Restore(data []byte, w io.Writer) error {
	var blocks []block
	var err error
	switch {
	case bytes.HasPrefix(data, []byte(magicV1)):
		blocks, err = walkV1(data)
	case archive.IsArchive(data):
		blocks, err = walkV2(data)
	default:
		blocks = []block{{box: data, lines: -1}}
	}
	if err != nil {
		return err
	}
	var buf []byte
	for _, b := range blocks {
		if buf, err = restoreBlock(b, buf); err != nil {
			return fmt.Errorf("legacy: block at line %d: %w", b.firstLine, err)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// restoreBlock sets buf to b's text.
func restoreBlock(b block, buf []byte) ([]byte, error) {
	box := b.box
	if err := capsule.CheckPrefix(box); errors.Is(err, capsule.ErrOldFormat) {
		if box, err = upgradeBox(box); err != nil {
			return nil, err
		}
	}
	st, err := core.Open(box, core.QueryOptions{DisableCache: true})
	if err != nil {
		return nil, err
	}
	if b.lines >= 0 && st.NumLines() != b.lines {
		return nil, fmt.Errorf("%w: box holds %d lines, its frame %d", ErrCorrupt, st.NumLines(), b.lines)
	}
	return st.AppendAll(buf[:0])
}

// walkV2 lists a v2 archive's blocks, checking each payload's checksum.
func walkV2(data []byte) ([]block, error) {
	frames, err := archive.ScanFrames(data)
	if err != nil {
		return nil, err
	}
	var blocks []block
	line := 0
	for _, f := range frames[:len(frames)-1] {
		box := data[f.PayloadOff : f.PayloadOff+f.PayloadLen]
		if !f.PayloadIntact(box) {
			return nil, fmt.Errorf("legacy: block at line %d: %w", line, archive.ErrChecksum)
		}
		blocks = append(blocks, block{box: box, firstLine: line, lines: f.Lines})
		line += f.Lines
	}
	return blocks, nil
}

// magicV1 begins a v1 archive: checksum-free frames, each a length varint,
// the payload, and a trailer of numLines, rawBytes, the block stamp's type
// mask byte and its max line length; a zero length is the terminator.
const magicV1 = "LGRPARC1"

// maxV1Field bounds v1 trailer fields, which carry no checksum.
const maxV1Field = 1 << 40

// walkV1 lists a v1 archive's blocks. With no checksum there is nothing to
// resynchronize on, so the walk stops at its first fault.
func walkV1(data []byte) ([]block, error) {
	var blocks []block
	pos, line := len(magicV1), 0
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(data[pos:])
		pos += max(n, 0)
		return v, n > 0 && v <= maxV1Field
	}
	for {
		off := pos
		boxLen, ok := uv()
		switch {
		case !ok:
			return nil, fmt.Errorf("%w: v1 frame length at offset %d", ErrCorrupt, off)
		case boxLen == 0:
			return blocks, nil
		case boxLen > uint64(len(data)-pos):
			return nil, fmt.Errorf("%w: v1 frame truncated at offset %d", ErrCorrupt, off)
		}
		box := data[pos : pos+int(boxLen)]
		pos += int(boxLen)
		numLines, ok1 := uv()
		_, ok2 := uv() // rawBytes
		if !ok1 || !ok2 || pos >= len(data) {
			return nil, fmt.Errorf("%w: v1 frame trailer at offset %d", ErrCorrupt, off)
		}
		pos++ // the stamp's type mask
		if _, ok := uv(); !ok {
			return nil, fmt.Errorf("%w: v1 frame trailer at offset %d", ErrCorrupt, off)
		}
		blocks = append(blocks, block{box: box, firstLine: line, lines: int(numLines)})
		line += int(numLines)
	}
}

// Upgrade writes data's text, as Restore gives it, to w as a current
// archive: archive.NewWriter with archive.DefaultOptions.
func Upgrade(data []byte, w io.Writer) error {
	aw, err := archive.NewWriter(w, archive.DefaultOptions())
	if err != nil {
		return err
	}
	if err := Restore(data, aw); err != nil {
		return err
	}
	return aw.Close()
}

// Verify checks that the archive upgraded opens with the live reader and
// that its strict Restore writes exactly what Restore gives for data,
// comparing the two streams block by block.
func Verify(data, upgraded []byte) error {
	a, err := archive.Open(upgraded)
	if err != nil {
		return fmt.Errorf("legacy: upgraded archive: %w", err)
	}
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		pw.CloseWithError(Restore(data, pw))
	}()
	defer func() {
		pr.Close() // ends the restore if the comparison stopped first
		<-done
	}()
	cw := &compareWriter{r: pr}
	if _, err := a.Restore(cw, true); err != nil {
		return fmt.Errorf("legacy: upgraded archive: %w", err)
	}
	switch n, err := pr.Read(make([]byte, 1)); {
	case n != 0:
		return fmt.Errorf("legacy: upgraded archive restores %d bytes, the input more", cw.off)
	case err != io.EOF:
		return err
	}
	return nil
}

// compareWriter checks what is written to it against what r reads.
type compareWriter struct {
	r   io.Reader
	buf []byte
	off int64
}

func (c *compareWriter) Write(p []byte) (int, error) {
	if cap(c.buf) < len(p) {
		c.buf = make([]byte, len(p))
	}
	want := c.buf[:len(p)]
	if _, err := io.ReadFull(c.r, want); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, fmt.Errorf("restores more than the input's %d bytes", c.off)
		}
		return 0, err
	}
	if !bytes.Equal(p, want) {
		return 0, fmt.Errorf("restores bytes %d-%d unlike the input", c.off, c.off+int64(len(p)))
	}
	c.off += int64(len(p))
	return len(p), nil
}
