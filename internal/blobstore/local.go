package blobstore

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Local is the filesystem backend: keys are slash paths under Root.
// With an empty Root, keys are used as ordinary paths verbatim (the CLI
// reads user-named files that way); with a Root set, keys must stay
// inside it — path traversal is a terminal error, not a lookup miss.
type Local struct {
	Root string
}

// NewLocal returns a filesystem backend rooted at root ("" = keys are
// plain paths).
func NewLocal(root string) *Local { return &Local{Root: root} }

// path maps a key to its filesystem path.
func (l *Local) path(key string) (string, error) {
	if key == "" {
		return "", MarkTerminal(errors.New("blobstore: empty key"))
	}
	if l.Root == "" {
		return filepath.FromSlash(key), nil
	}
	if !filepath.IsLocal(filepath.FromSlash(key)) {
		return "", MarkTerminal(fmt.Errorf("blobstore: key %q escapes the root", key))
	}
	return filepath.Join(l.Root, filepath.FromSlash(key)), nil
}

// mapErr folds filesystem errors into the blobstore taxonomy.
func mapErr(err error) error {
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: %w", ErrNotFound, err)
	}
	return err
}

// Get returns the file's contents.
func (l *Local) Get(ctx context.Context, key string) ([]byte, error) {
	p, err := l.path(key)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, mapErr(err)
	}
	return data, nil
}
