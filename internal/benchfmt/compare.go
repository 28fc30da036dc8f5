package benchfmt

import (
	"fmt"
	"math"
	"strings"
)

// Delta is one metric's baseline-vs-current comparison.
type Delta struct {
	Name string
	Base float64
	Cur  float64
	// Change is the worse-direction fractional change: positive means the
	// current run is worse than baseline, regardless of metric orientation
	// (0.25 = 25% worse).
	Change float64
	// Tol is the tolerance applied.
	Tol       float64
	Regressed bool
	// Missing marks a baseline metric the current run did not report —
	// always a failure (a silently dropped benchmark is itself a
	// regression).
	Missing bool
}

func (d Delta) String() string {
	status := "ok"
	switch {
	case d.Missing:
		return fmt.Sprintf("MISSING %-32s baseline %.6g, absent from current run", d.Name, d.Base)
	case d.Regressed:
		status = "REGRESSED"
	}
	return fmt.Sprintf("%-9s %-32s %.6g -> %.6g (%+.1f%%, tol %.0f%%)",
		status, d.Name, d.Base, d.Cur, 100*d.Change, 100*d.Tol)
}

// Compare diffs a current run against a baseline. tol is the fractional
// worse-direction budget every non-exact metric gets (0 = must not be
// worse at all). It errors on schema or workload-shape mismatch — numbers
// from different formats or sizings must never be compared silently.
func Compare(baseline, current *File, tol float64) ([]Delta, error) {
	if baseline.SchemaVersion != current.SchemaVersion {
		return nil, fmt.Errorf("schema mismatch: baseline v%d, current v%d",
			baseline.SchemaVersion, current.SchemaVersion)
	}
	if baseline.Config != current.Config {
		return nil, fmt.Errorf("workload mismatch: baseline %+v, current %+v",
			baseline.Config, current.Config)
	}
	deltas := make([]Delta, 0, len(baseline.Metrics))
	for _, bm := range baseline.Metrics {
		d := Delta{Name: bm.Name, Base: bm.Value, Tol: tol}
		cm, ok := current.Lookup(bm.Name)
		if !ok {
			d.Missing = true
			d.Regressed = true
			deltas = append(deltas, d)
			continue
		}
		d.Cur = cm.Value
		if bm.Exact {
			d.Regressed = cm.Value != bm.Value
			if bm.Value != 0 {
				d.Change = (cm.Value - bm.Value) / math.Abs(bm.Value)
			}
			deltas = append(deltas, d)
			continue
		}
		if bm.Value != 0 {
			d.Change = (cm.Value - bm.Value) / math.Abs(bm.Value)
			if !bm.LowerIsBetter {
				d.Change = -d.Change
			}
		} else if cm.Value != 0 {
			// From exactly zero, any movement in the worse direction is an
			// infinite relative change.
			if (bm.LowerIsBetter && cm.Value > 0) || (!bm.LowerIsBetter && cm.Value < 0) {
				d.Change = math.Inf(1)
			} else {
				d.Change = math.Inf(-1)
			}
		}
		d.Regressed = d.Change > tol
		deltas = append(deltas, d)
	}
	return deltas, nil
}

// Regressions filters the failing deltas.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// FormatDeltas renders the comparison table.
func FormatDeltas(deltas []Delta) string {
	var b strings.Builder
	for _, d := range deltas {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
