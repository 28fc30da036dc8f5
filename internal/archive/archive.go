package archive

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"

	"loggrep/internal/blockindex"
	"loggrep/internal/capsule"
	"loggrep/internal/core"
	"loggrep/internal/rtpattern"
)

// Magic identifies a v2 archive stream (checksummed frames).
const Magic = "LGRPARC2"

// IsArchive reports whether data begins with the archive magic.
func IsArchive(data []byte) bool { return hasMagic(data, Magic) }

// ErrCorrupt reports an undecodable archive.
var ErrCorrupt = errors.New("archive: corrupt archive")

// ErrOldFormat reports an input in a retired on-disk format: a v1 archive,
// a bare box of a retired revision, or a v2 archive holding such a box.
// It is never damage: Open refuses the whole input, and `loggrep upgrade`
// rewrites it. It is capsule.ErrOldFormat, so errors.Is matches either.
var ErrOldFormat = capsule.ErrOldFormat

// ErrChecksum reports a frame whose stored CRC32C does not match its
// bytes. It wraps ErrCorrupt.
var ErrChecksum = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)

// Options configures a Writer.
type Options struct {
	// Core configures per-block compression.
	Core core.Options
	// BlockBytes is the raw-size threshold at which a block is cut
	// (at a line boundary). The paper uses 64 MB; tests use less.
	BlockBytes int
	// Workers is the number of concurrent block compressors
	// (default: GOMAXPROCS).
	Workers int
}

// DefaultOptions mirrors the production setting.
func DefaultOptions() Options {
	return Options{Core: core.DefaultOptions(), BlockBytes: 64 << 20}
}

// blockMeta is the per-block frame metadata.
type blockMeta struct {
	numLines int
	rawBytes int
	stamp    rtpattern.Stamp
}

// Writer cuts a raw log stream into blocks, compresses up to Workers of
// them at once and writes their frames in stream order. It holds at most
// Workers + 1 raw blocks: the ones compressing and the one filling.
//
// A Writer is not safe for concurrent use.
type Writer struct {
	w    io.Writer
	opts Options

	buf    []byte            // the block filling
	queue  []chan compressed // blocks compressing, oldest first
	lines  int               // lines written so far, the next frame's line offset
	err    error             // first write error, latched
	closed bool
	// index accumulates block scans for the skip-index sections Close
	// appends after the terminator.
	index *blockindex.Builder
}

// compressed is one block's finished work.
type compressed struct {
	meta blockMeta
	box  []byte
	scan *blockindex.BlockScan
}

// NewWriter starts an archive writer. Close must be called to flush the
// final partial block and the terminator.
func NewWriter(w io.Writer, opts Options) (*Writer, error) {
	if opts.BlockBytes <= 0 {
		opts.BlockBytes = DefaultOptions().BlockBytes
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if _, err := w.Write([]byte(Magic)); err != nil {
		return nil, err
	}
	return &Writer{w: w, opts: opts, index: blockindex.NewBuilder()}, nil
}

// Write buffers raw log bytes and cuts a block at the last line boundary
// inside BlockBytes, or, when a single line is longer than that, at the
// end of that line. The cuts depend only on the stream, never on how it is
// split into writes. A cut block starts compressing at once; when Workers
// blocks already are, Write first writes the oldest one's frame.
func (aw *Writer) Write(p []byte) (int, error) {
	if aw.err != nil {
		return 0, aw.err
	}
	if aw.closed {
		return 0, errors.New("archive: write after Close")
	}
	n := len(p)
	for len(p) > 0 {
		if room := aw.opts.BlockBytes - len(aw.buf); room > 0 {
			k := min(room, len(p))
			aw.buf = append(aw.buf, p[:k]...)
			p = p[k:]
			if len(aw.buf) == aw.opts.BlockBytes {
				if cut := bytes.LastIndexByte(aw.buf, '\n'); cut >= 0 {
					aw.cut(cut + 1)
				}
			}
			continue
		}
		// The buffer holds BlockBytes or more and no newline: the block
		// ends with the line that is still arriving.
		nl := bytes.IndexByte(p, '\n')
		if nl < 0 {
			aw.buf = append(aw.buf, p...)
			break
		}
		aw.buf = append(aw.buf, p[:nl+1]...)
		p = p[nl+1:]
		aw.cut(len(aw.buf))
	}
	return n, aw.err
}

// cut sends the first n buffered bytes off as a block and keeps the rest,
// a partial line, as the start of the next. The next buffer holds a whole
// block: a stream that filled one block tends to fill another, and a cut
// falls at the last newline, so the block just cut is almost always
// shorter than the next fill.
func (aw *Writer) cut(n int) {
	block, rest := aw.buf[:n:n], aw.buf[n:]
	aw.dispatch(block)
	aw.buf = append(make([]byte, 0, aw.opts.BlockBytes), rest...)
}

// dispatch starts compressing block on a goroutine of its own, first
// writing the oldest block's frame when Workers blocks are in flight.
func (aw *Writer) dispatch(block []byte) {
	if len(aw.queue) == aw.opts.Workers {
		aw.writeOldest()
	}
	c := make(chan compressed, 1)
	go func() {
		box, scan, scanNS := core.CompressScan(block, aw.opts.Core)
		mArchiveIndexScanNS.Observe(scanNS)
		meta := blockMeta{numLines: countLines(block), rawBytes: len(block), stamp: blockStamp(block)}
		c <- compressed{meta: meta, box: box, scan: scan}
	}()
	aw.queue = append(aw.queue, c)
}

// writeOldest waits for the oldest block in flight and writes its frame at
// the running line offset — the v2 header carries the block's absolute
// first line, known only once every earlier block is counted.
func (aw *Writer) writeOldest() {
	r := <-aw.queue[0]
	aw.queue = aw.queue[1:]
	if aw.err == nil {
		aw.err = aw.writeFrame(r.meta, r.box)
	}
	aw.index.Add(uint64(aw.lines), r.meta.numLines, len(r.box), r.scan)
	aw.lines += r.meta.numLines
}

func (aw *Writer) writeFrame(meta blockMeta, box []byte) error {
	if _, err := aw.w.Write(encodeHeader(meta, aw.lines, box)); err != nil {
		return err
	}
	_, err := aw.w.Write(box)
	return err
}

// Close flushes the final partial block, writes every frame still in
// flight, then the terminator and the index sections.
func (aw *Writer) Close() error {
	if aw.closed {
		return nil
	}
	aw.closed = true
	if len(aw.buf) > 0 {
		aw.dispatch(aw.buf)
		aw.buf = nil
	}
	for len(aw.queue) > 0 {
		aw.writeOldest()
	}
	if aw.err != nil {
		return aw.err
	}
	// The terminator is a checksummed empty frame carrying the total
	// line count, so truncation at a frame boundary is detectable.
	if _, err := aw.w.Write(encodeHeader(blockMeta{}, aw.lines, nil)); err != nil {
		return err
	}
	// Index sections ride after the terminator: readers that predate them
	// (or find them damaged) stop at the terminator and scan every block.
	if sections := aw.index.Sections(); len(sections) > 0 {
		if _, err := aw.w.Write(sections); err != nil {
			return err
		}
		mArchiveIndexBytes.Add(int64(len(sections)))
		if aw.index.VocabOverflowed() {
			mArchiveIndexVocabOverflow.Inc()
		}
	}
	return nil
}

func countLines(block []byte) int {
	n := bytes.Count(block, []byte{'\n'})
	if len(block) > 0 && block[len(block)-1] != '\n' {
		n++
	}
	return n
}

// blockStamp folds every line of the block into a block-level stamp: the
// type mask of all its bytes, newlines included, and the longest line.
// Once the mask holds every class the walk only looks for newlines.
func blockStamp(block []byte) rtpattern.Stamp {
	var st rtpattern.Stamp
	for rest := block; len(rest) > 0; {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
			st.TypeMask |= rtpattern.ClassOf('\n')
		} else {
			rest = nil
		}
		st.MaxLen = max(st.MaxLen, len(line))
		if st.TypeMask != rtpattern.TypeAll {
			st.TypeMask |= rtpattern.TypeMaskOf(line)
		}
	}
	return st
}

// Compress is the convenience one-shot form: the whole stream in memory.
func Compress(stream []byte, opts Options) ([]byte, error) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, opts)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(stream); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
