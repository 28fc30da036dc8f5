package archive

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"loggrep/internal/blockindex"
	"loggrep/internal/core"
	"loggrep/internal/rtpattern"
)

// Magic identifies a v2 archive stream (checksummed frames).
const Magic = "LGRPARC2"

// MagicV1 identifies the legacy v1 stream (no checksums). The writer no
// longer emits it; Open still accepts it.
const MagicV1 = "LGRPARC1"

// IsArchive reports whether data begins with any supported archive magic.
func IsArchive(data []byte) bool {
	return hasMagic(data, Magic) || hasMagic(data, MagicV1)
}

// ErrCorrupt reports an undecodable archive.
var ErrCorrupt = errors.New("archive: corrupt archive")

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

// Writer cuts a raw log stream into blocks and compresses them
// concurrently, writing frames in order.
type Writer struct {
	w    io.Writer
	opts Options

	buf  []byte
	seq  int
	jobs chan job
	done chan result

	mu       sync.Mutex
	pending  map[int]result // seq -> finished block, reordering buffer
	next     int
	lines    int // running global line count, becomes the terminator stamp
	werr     error
	closed   bool
	wg       sync.WaitGroup
	collDone chan struct{}
	// index accumulates block scans for the skip-index sections Close
	// appends after the terminator.
	index *blockindex.Builder
}

type job struct {
	seq   int
	block []byte
}

type result struct {
	seq  int
	meta blockMeta
	box  []byte
	scan *blockindex.BlockScan
}

// NewWriter starts a concurrent archive writer. Close must be called to
// flush the final partial block and the terminator.
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
	aw := &Writer{
		w:        w,
		opts:     opts,
		jobs:     make(chan job, opts.Workers),
		done:     make(chan result, opts.Workers),
		pending:  make(map[int]result),
		collDone: make(chan struct{}),
		index:    blockindex.NewBuilder(),
	}
	for i := 0; i < opts.Workers; i++ {
		aw.wg.Add(1)
		go aw.worker()
	}
	go aw.collector()
	return aw, nil
}

func (aw *Writer) worker() {
	defer aw.wg.Done()
	for j := range aw.jobs {
		box := core.Compress(j.block, aw.opts.Core)
		meta := blockMeta{
			numLines: countLines(j.block),
			rawBytes: len(j.block),
			stamp:    blockStamp(j.block),
		}
		t0 := time.Now()
		scan := blockindex.ScanBlock(j.block)
		mArchiveIndexScanNS.Observe(time.Since(t0).Nanoseconds())
		aw.done <- result{seq: j.seq, meta: meta, box: box, scan: scan}
	}
}

// collector writes finished frames in sequence order. Frames are encoded
// here rather than in the workers because the v2 header carries the
// block's absolute line offset, which is only known once every earlier
// block has been counted.
func (aw *Writer) collector() {
	defer close(aw.collDone)
	for r := range aw.done {
		aw.mu.Lock()
		aw.pending[r.seq] = r
		for {
			next, ok := aw.pending[aw.next]
			if !ok {
				break
			}
			delete(aw.pending, aw.next)
			if aw.werr == nil {
				aw.werr = aw.writeFrame(next.meta, next.box)
			}
			aw.index.Add(uint64(aw.lines), next.meta.numLines, len(next.box), next.scan)
			aw.lines += next.meta.numLines
			aw.next++
		}
		aw.mu.Unlock()
	}
}

// writeFrame emits one block. Caller holds aw.mu.
func (aw *Writer) writeFrame(meta blockMeta, box []byte) error {
	if _, err := aw.w.Write(encodeHeader(meta, aw.lines, box)); err != nil {
		return err
	}
	_, err := aw.w.Write(box)
	return err
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

// Write buffers raw log bytes, cutting and dispatching full blocks at line
// boundaries.
func (aw *Writer) Write(p []byte) (int, error) {
	aw.mu.Lock()
	err := aw.werr
	closed := aw.closed
	aw.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if closed {
		return 0, errors.New("archive: write after Close")
	}
	aw.buf = append(aw.buf, p...)
	for len(aw.buf) >= aw.opts.BlockBytes {
		cut := bytes.LastIndexByte(aw.buf[:aw.opts.BlockBytes], '\n')
		if cut < 0 {
			// No newline within the window: wait for one (a single
			// entry larger than the block size is pathological).
			nl := bytes.IndexByte(aw.buf[aw.opts.BlockBytes:], '\n')
			if nl < 0 {
				break
			}
			cut = aw.opts.BlockBytes + nl
		}
		block := make([]byte, cut+1)
		copy(block, aw.buf[:cut+1])
		aw.buf = aw.buf[cut+1:]
		aw.jobs <- job{seq: aw.seq, block: block}
		aw.seq++
	}
	return len(p), nil
}

// Close flushes the final partial block, waits for all workers and writes
// the terminator.
func (aw *Writer) Close() error {
	aw.mu.Lock()
	if aw.closed {
		aw.mu.Unlock()
		return nil
	}
	aw.closed = true
	aw.mu.Unlock()

	if len(aw.buf) > 0 {
		aw.jobs <- job{seq: aw.seq, block: aw.buf}
		aw.seq++
		aw.buf = nil
	}
	close(aw.jobs)
	aw.wg.Wait()
	close(aw.done)
	<-aw.collDone // every frame flushed (or a write error latched)
	aw.mu.Lock()
	err := aw.werr
	lines := aw.lines
	aw.mu.Unlock()
	if err != nil {
		return err
	}
	// The terminator is a checksummed empty frame carrying the total
	// line count, so truncation at a frame boundary is detectable.
	if _, err = aw.w.Write(encodeHeader(blockMeta{}, lines, nil)); err != nil {
		return err
	}
	// Index sections ride after the terminator: readers that predate them
	// (or find them damaged) stop at the terminator and scan every block.
	if sections := aw.index.Sections(); len(sections) > 0 {
		if _, err = aw.w.Write(sections); err != nil {
			return err
		}
		mArchiveIndexBytes.Add(int64(len(sections)))
		if aw.index.VocabOverflowed() {
			mArchiveIndexVocabOverflow.Inc()
		}
	}
	return nil
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
