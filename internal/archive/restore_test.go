package archive

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"loggrep/internal/loggen"
)

// TestReconstructRestoreDamaged: on archives with a damaged block and with
// a cut tail, Restore writes exactly what ReconstructPartial returns and
// reports the same damage; strict, it writes nothing and fails as
// ReconstructAll does.
func TestReconstructRestoreDamaged(t *testing.T) {
	var stream []byte
	for _, name := range []string{"A", "G", "S"} {
		lt, _ := loggen.ByName(name)
		stream = append(stream, lt.Block(4, 900)...)
	}
	data, err := Compress(stream, testOptions(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	frames, err := ScanFrames(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 4 {
		t.Fatalf("%d frames, want several", len(frames))
	}
	flipped := append([]byte(nil), data...)
	f := frames[len(frames)/2]
	flipped[f.PayloadOff+f.PayloadLen/2] ^= 0x40
	cut := data[:frames[len(frames)-2].PayloadOff+1]
	for name, arc := range map[string][]byte{"pristine": data, "flipped": flipped, "cut": cut} {
		a, err := Open(arc)
		if err != nil {
			t.Fatal(err)
		}
		lines, wantDamage := a.ReconstructPartial()
		var want bytes.Buffer
		for _, l := range lines {
			want.WriteString(l + "\n")
		}
		var out bytes.Buffer
		damaged, err := a.Restore(&out, false)
		if err != nil {
			t.Fatalf("%s: Restore: %v", name, err)
		}
		if !bytes.Equal(out.Bytes(), want.Bytes()) || errorsText(damaged) != errorsText(wantDamage) {
			t.Fatalf("%s: Restore wrote %d bytes, damage %q; ReconstructPartial %d bytes, damage %q",
				name, out.Len(), errorsText(damaged), want.Len(), errorsText(wantDamage))
		}
		if (name == "pristine") != (len(damaged) == 0) {
			t.Fatalf("%s: damage %q", name, errorsText(damaged))
		}

		_, allErr := a.ReconstructAll()
		out.Reset()
		damaged, err = a.Restore(&out, true)
		if fmtErr(err) != fmtErr(allErr) || damaged != nil {
			t.Fatalf("%s: strict Restore: %v (damage %v); ReconstructAll: %v", name, err, damaged, allErr)
		}
		if err != nil && out.Len() != 0 {
			t.Fatalf("%s: strict Restore wrote %d bytes before failing", name, out.Len())
		}
	}
}

func errorsText(d []BlockError) string {
	var s []string
	for i := range d {
		s = append(s, d[i].Error())
	}
	return strings.Join(s, "; ")
}

func fmtErr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// failWriter fails every write after the first.
type failWriter struct{ writes int }

var errFull = errors.New("device full")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes > 1 {
		return 0, errFull
	}
	return len(p), nil
}

// TestReconstructRestoreWriteError: a write error ends Restore at once and
// is returned as it is, not as damage.
func TestReconstructRestoreWriteError(t *testing.T) {
	lt, _ := loggen.ByName("G")
	data, err := Compress(lt.Block(2, 3000), testOptions(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumBlocks() < 3 {
		t.Fatalf("%d blocks, want several", a.NumBlocks())
	}
	for _, strict := range []bool{false, true} {
		w := &failWriter{}
		if d, err := a.Restore(w, strict); !errors.Is(err, errFull) || d != nil || w.writes != 2 {
			t.Fatalf("strict %v: Restore = %v, %v after %d writes; want the write error after 2", strict, d, err, w.writes)
		}
	}
}

// TestReconstructRestoreBesideQueries runs Restore, deep Verify and queries
// on one archive at once: each releases or fills the same stores' payloads
// and row plans under their locks, and every answer stays whole.
func TestReconstructRestoreBesideQueries(t *testing.T) {
	lt, _ := loggen.ByName("A")
	raw := lt.Block(5, 3000)
	data, err := Compress(raw, testOptions(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Query("ERROR", 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				switch g {
				case 0:
					var out bytes.Buffer
					if _, err := a.Restore(&out, false); err != nil || !bytes.Equal(out.Bytes(), raw) {
						t.Errorf("Restore: %v, equal %v", err, bytes.Equal(out.Bytes(), raw))
					}
				case 1:
					if d := a.Verify(true); d != nil {
						t.Errorf("Verify: %v", d)
					}
				default:
					// A fresh command each time misses the query cache.
					res, err := a.Query(fmt.Sprintf("ERROR OR absent%d_%d", g, i), 2)
					if err != nil || res.Matches != want.Matches {
						t.Errorf("query: %v, %d matches, want %d", err, res.Matches, want.Matches)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReconstructRestoreReleasesPayloads: Restore and a deep Verify drop
// each block's decoded payloads once the block is written, so a second
// pass reads every block's capsules again rather than finding the whole
// archive still decoded.
func TestReconstructRestoreReleasesPayloads(t *testing.T) {
	lt, _ := loggen.ByName("S")
	data, err := Compress(lt.Block(3, 3000), testOptions(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, pass := range map[string]func(){
		"Restore":      func() { a.Restore(io.Discard, false) },
		"Verify(deep)": func() { a.Verify(true) },
	} {
		pass()
		var reads atomic.Int64
		a.SetReadHook(func(context.Context) error { reads.Add(1); return nil })
		pass()
		a.SetReadHook(nil)
		// One gated read per block open is not a payload read; every
		// block's capsules must be read on top of those.
		if n := reads.Load(); n <= int64(a.NumBlocks()) {
			t.Fatalf("%s: second pass made %d reads over %d blocks: payloads stayed decoded", name, n, a.NumBlocks())
		}
	}
}
