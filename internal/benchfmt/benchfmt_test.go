package benchfmt

import (
	"path/filepath"
	"strings"
	"testing"
)

func sample() *File {
	f := New("fig7", Config{Lines: 2000, Seed: 1, Reps: 1, Class: "production"})
	f.Add("LG/compression_ratio", 20.0, "x", false)
	f.Add("LG/query_total_s", 0.5, "s", true)
	f.AddExact("LG/matches_total", 123, "matches")
	return f
}

// TestCompareExact: an exact metric fails on drift in either direction,
// however loose the tolerance.
func TestCompareExact(t *testing.T) {
	for _, drift := range []float64{-1, +1} {
		base, cur := sample(), sample()
		cur.Metrics[2].Value += drift
		deltas, err := Compare(base, cur, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		if !deltas[2].Regressed {
			t.Errorf("exact metric drift %+v not caught: %+v", drift, deltas[2])
		}
	}
}

// TestCompareRegression checks both metric orientations: a lower ratio and
// a higher latency are each the worse direction.
func TestCompareRegression(t *testing.T) {
	base, cur := sample(), sample()
	cur.Metrics[0].Value = 10.0 // ratio halved: 100% worse
	cur.Metrics[1].Value = 0.8  // latency up 60%
	deltas, err := Compare(base, cur, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if !deltas[0].Regressed || !deltas[1].Regressed {
		t.Errorf("expected both regressions, got %+v", deltas)
	}
	if deltas[2].Regressed {
		t.Errorf("unchanged metric flagged: %+v", deltas[2])
	}
	if len(Regressions(deltas)) != 2 {
		t.Errorf("Regressions count %d, want 2", len(Regressions(deltas)))
	}
	out := FormatDeltas(deltas)
	if !strings.Contains(out, "REGRESSED") || !strings.Contains(out, "ok") {
		t.Errorf("rendered table missing statuses:\n%s", out)
	}
}

// TestCompareImprovement pins that movement in the better direction never
// fails, even with zero tolerance.
func TestCompareImprovement(t *testing.T) {
	base, cur := sample(), sample()
	cur.Metrics[0].Value = 40.0 // ratio doubled
	cur.Metrics[1].Value = 0.25 // latency halved
	cur.Metrics[2].Value = 123  // unchanged
	deltas, err := Compare(base, cur, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		if d.Regressed {
			t.Errorf("improvement flagged as regression: %+v", d)
		}
	}
}

// TestCompareMissingMetric: a metric dropped from the current run is a
// failure whatever the tolerance — silently losing coverage is itself a
// regression.
func TestCompareMissingMetric(t *testing.T) {
	base, cur := sample(), sample()
	cur.Metrics = cur.Metrics[:1]
	deltas, err := Compare(base, cur, 10)
	if err != nil {
		t.Fatal(err)
	}
	missing := 0
	for _, d := range deltas {
		if d.Missing {
			missing++
			if !d.Regressed {
				t.Errorf("missing metric not failing: %+v", d)
			}
		}
	}
	if missing != 2 {
		t.Errorf("missing count %d, want 2", missing)
	}
	if !strings.Contains(FormatDeltas(deltas), "MISSING") {
		t.Error("rendered table does not call out MISSING")
	}
}

// TestCompareSchemaMismatch: different schema versions or workload shapes
// must refuse to compare.
func TestCompareSchemaMismatch(t *testing.T) {
	base, cur := sample(), sample()
	cur.SchemaVersion = SchemaVersion + 1
	if _, err := Compare(base, cur, 0.5); err == nil {
		t.Error("schema mismatch not rejected")
	}
	cur = sample()
	cur.Config.Lines = 999
	if _, err := Compare(base, cur, 0.5); err == nil {
		t.Error("workload mismatch not rejected")
	}
}

// TestReadWriteRoundTrip exercises the on-disk format, including the
// schema_version guard in Read.
func TestReadWriteRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_fig7.json")
	f := sample()
	if err := Write(path, f); err != nil {
		t.Fatal(err)
	}
	back, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.SchemaVersion != SchemaVersion || back.Name != "fig7" || len(back.Metrics) != 3 {
		t.Errorf("round trip mangled file: %+v", back)
	}
	if back.Env.GoVersion == "" || back.Env.NumCPU == 0 {
		t.Errorf("environment metadata missing: %+v", back.Env)
	}
	if _, err := Read(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing file not an error")
	}
}
