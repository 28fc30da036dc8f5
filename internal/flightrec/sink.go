package flightrec

import (
	"os"
	"path/filepath"
	"sync"
)

// AtomicWriteFileSync writes data to path so a concurrent reader never
// observes a partial file and a crash cannot lose it: the bytes land in a
// temp file in the same directory, fsynced, then a rename publishes them
// and the directory is fsynced, so once it returns neither a process kill
// nor a host crash or power loss can lose the file or resurface the old
// bytes. The ingest sealer deletes the WAL only after this returns; the
// flight recorder writes every bundle through it.
func AtomicWriteFileSync(path string, data []byte, perm os.FileMode) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp, perm)
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory, making its entries (renames, creates,
// removes) durable against a host crash. File fsyncs do not cover the
// directory entry that names the file; callers that must not lose a
// freshly created or renamed file pair the file's own fsync with this.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// RotatingFile is a size-bounded append-only file sink: when a write
// would push the file past maxBytes, the current file is renamed to
// path+".1" (replacing the previous generation) and a fresh file starts.
// Worst-case disk use is therefore ~2×maxBytes. loggrepd wires the
// wide-event slowlog here (-slowlog-file); the flight recorder's bundles
// use the same directory-atomic primitives.
//
// Safe for concurrent use; each Write is atomic with respect to
// rotation, so JSON lines never straddle a rotation boundary.
type RotatingFile struct {
	mu   sync.Mutex
	path string
	max  int64
	f    *os.File
	size int64
}

// OpenRotatingFile opens (appending) or creates path with the given
// rotation threshold; maxBytes <= 0 defaults to 64MB.
func OpenRotatingFile(path string, maxBytes int64) (*RotatingFile, error) {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &RotatingFile{path: path, max: maxBytes, f: f, size: st.Size()}, nil
}

// Write appends p, rotating first if it would exceed the bound. A single
// write larger than the bound still lands (in a fresh file) rather than
// being dropped.
func (r *RotatingFile) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.size > 0 && r.size+int64(len(p)) > r.max {
		if err := r.rotate(); err != nil {
			return 0, err
		}
	}
	n, err := r.f.Write(p)
	r.size += int64(n)
	return n, err
}

func (r *RotatingFile) rotate() error {
	if err := r.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(r.path, r.path+".1"); err != nil && !os.IsNotExist(err) {
		return err
	}
	f, err := os.OpenFile(r.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	r.f, r.size = f, 0
	return nil
}

// Close closes the underlying file.
func (r *RotatingFile) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.f.Close()
}
