package blobstore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLocalGetStat(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "t", "s", "seg-00000001.lgrep"), "hello blob")
	l := NewLocal(dir)
	ctx := context.Background()

	data, err := l.Get(ctx, "t/s/seg-00000001.lgrep")
	if err != nil || string(data) != "hello blob" {
		t.Fatalf("Get = %q, %v", data, err)
	}

	_, err = l.Get(ctx, "t/s/absent")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing Get err = %v, want ErrNotFound", err)
	}
	if Classify(err) != ClassTerminal {
		t.Fatalf("not-found err %v classified %v, want terminal", err, Classify(err))
	}
}

func TestLocalRejectsTraversal(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "inside"), "x")
	writeFile(t, filepath.Join(filepath.Dir(dir), "outside"), "secret")
	l := NewLocal(dir)
	ctx := context.Background()

	for _, key := range []string{"../outside", "a/../../outside", "", "/etc/hostname"} {
		_, err := l.Get(ctx, key)
		if err == nil {
			t.Fatalf("Get(%q) succeeded, want rejection", key)
		}
		if Classify(err) != ClassTerminal {
			t.Fatalf("Get(%q) err %v classified %v, want terminal", key, err, Classify(err))
		}
	}
}

func TestLocalEmptyRootUsesPlainPaths(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "plain.lgrep")
	writeFile(t, p, "cli-opened")
	l := NewLocal("")
	data, err := l.Get(context.Background(), filepath.ToSlash(p))
	if err != nil || string(data) != "cli-opened" {
		t.Fatalf("Get = %q, %v", data, err)
	}
}

func TestLocalGetHonorsCancelledContext(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "blob"), "x")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewLocal(dir).Get(ctx, "blob"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
