package liveops

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loggrep/internal/obsv"
)

// Multi-window multi-burn-rate thresholds from the SRE literature: a
// fast burn (page-worthy) consumes ~2% of a 30d budget in an hour, a
// slow burn (ticket-worthy) ~5% in six hours. Requiring both the long
// and the short window over threshold keeps one bad second from paging
// and makes the alert reset quickly once the bleeding stops.
const (
	FastBurnThreshold = 14.4
	SlowBurnThreshold = 6.0
)

// burnRingMinutes sizes the per-minute good/bad ring: it must cover the
// longest burn window (6h).
const burnRingMinutes = 6 * 60

// Objective is one declarative service-level objective.
type Objective struct {
	// Name identifies the objective in /v1/slo, metrics labels and
	// flight-recorder trigger reasons.
	Name string `json:"name"`
	// Target is the objective's success ratio, e.g. 0.999 for "99.9%".
	Target float64 `json:"target"`
	// Window is the error-budget window the target applies over
	// (typically 30 days). Burn rates are relative to it.
	Window time.Duration `json:"-"`
	// LatencyThreshold, when non-zero, makes this a latency objective:
	// a request is good only if it also finished under the threshold
	// ("99.9% of queries < 500ms"). Zero means availability-only.
	LatencyThreshold time.Duration `json:"-"`
}

// ParseObjective parses the -slo flag syntax
//
//	name:target%:window[:latency]
//
// e.g. "availability:99.9:30d" or "query-latency:99:30d:500ms". The
// window accepts a "d" (day) suffix on top of time.ParseDuration; the
// target is a percentage.
func ParseObjective(spec string) (Objective, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 && len(parts) != 4 {
		return Objective{}, fmt.Errorf("slo spec %q: want name:target%%:window[:latency]", spec)
	}
	var o Objective
	o.Name = strings.TrimSpace(parts[0])
	if o.Name == "" {
		return Objective{}, fmt.Errorf("slo spec %q: empty objective name", spec)
	}
	pct, err := strconv.ParseFloat(strings.TrimSuffix(parts[1], "%"), 64)
	if err != nil || pct <= 0 || pct >= 100 {
		return Objective{}, fmt.Errorf("slo spec %q: target must be a percentage in (0,100)", spec)
	}
	o.Target = pct / 100
	o.Window, err = parseDays(parts[2])
	if err != nil || o.Window <= 0 {
		return Objective{}, fmt.Errorf("slo spec %q: bad window %q", spec, parts[2])
	}
	if len(parts) == 4 {
		o.LatencyThreshold, err = time.ParseDuration(parts[3])
		if err != nil || o.LatencyThreshold <= 0 {
			return Objective{}, fmt.Errorf("slo spec %q: bad latency threshold %q", spec, parts[3])
		}
	}
	return o, nil
}

// parseDays is time.ParseDuration plus a "d" suffix (SLO windows are
// quoted in days; stdlib durations stop at hours).
func parseDays(s string) (time.Duration, error) {
	if n, ok := strings.CutSuffix(s, "d"); ok {
		days, err := strconv.ParseFloat(n, 64)
		if err != nil {
			return 0, err
		}
		return time.Duration(days * 24 * float64(time.Hour)), nil
	}
	return time.ParseDuration(s)
}

// minuteBucket is one minute of good/bad outcomes for one objective.
type minuteBucket struct{ good, bad int64 }

// objectiveState is one objective's live accounting: a per-minute ring
// covering the longest burn window plus since-start totals.
type objectiveState struct {
	Objective
	label string // sanitized metrics label value

	mu   sync.Mutex
	ring ring[minuteBucket] // epoch: unix seconds / 60
	good int64              // since start
	bad  int64
	fast bool // burn conditions currently met (edge detection)
	slow bool

	cGood, cBad *obsv.Counter
}

// badShare returns the bad fraction over the trailing `minutes` window
// (including the current minute); 0 with no traffic. Caller holds o.mu
// and has advanced the ring to the current minute.
func (o *objectiveState) badShare(minutes int64) float64 {
	var good, bad int64
	for i := int64(0); i < minutes; i++ {
		b := o.ring.back(i)
		good += b.good
		bad += b.bad
	}
	if good+bad == 0 {
		return 0
	}
	return float64(bad) / float64(good+bad)
}

// burn converts a bad share to a burn rate: 1.0 means exactly spending
// the error budget at the sustainable rate, N means N times too fast.
func (o *objectiveState) burn(minutes int64) float64 {
	budget := 1 - o.Target
	if budget <= 0 {
		return 0
	}
	return o.badShare(minutes) / budget
}

// Engine evaluates SLO objectives continuously from the request stream.
// Record classifies one finished request against every objective and,
// at most once a second, re-evaluates the multi-window burn rates,
// firing the fast-burn hook on a rising edge. All methods are safe for
// concurrent use.
type Engine struct {
	objectives []*objectiveState
	now        func() time.Time
	onFastBurn atomic.Pointer[func(objective string)]
	lastEval   atomic.Int64 // unix seconds of the last burn evaluation

	cFast *obsv.Counter
	cSlow *obsv.Counter
}

// NewEngine returns an engine tracking the given objectives, with
// metrics registered in reg (nil = obsv.Default). An engine with no
// objectives is valid and records nothing.
func NewEngine(reg *obsv.Registry, objectives []Objective) *Engine {
	if reg == nil {
		reg = obsv.Default
	}
	e := &Engine{
		now: time.Now,
		cFast: reg.Counter("loggrep_slo_fast_burn_triggers_total",
			"Fast-burn edges detected across all SLO objectives (each fires the flight-recorder hook)"),
		cSlow: reg.Counter("loggrep_slo_slow_burn_triggers_total",
			"Slow-burn edges detected across all SLO objectives"),
	}
	for _, obj := range objectives {
		// The ring's epoch is not seeded from time.Now here: that would
		// misalign it for callers that inject a clock after construction.
		o := &objectiveState{Objective: obj, label: SanitizeTenant(obj.Name),
			ring: ring[minuteBucket]{buckets: make([]minuteBucket, burnRingMinutes)}}
		o.cGood = reg.Counter(fmt.Sprintf("loggrep_slo_good_total{objective=%q}", o.label),
			"Requests meeting the objective, by objective")
		o.cBad = reg.Counter(fmt.Sprintf("loggrep_slo_bad_total{objective=%q}", o.label),
			"Requests violating the objective, by objective")
		for _, w := range []struct {
			name    string
			minutes int64
		}{{"5m", 5}, {"30m", 30}, {"1h", 60}, {"6h", 360}} {
			w := w
			reg.Gauge(fmt.Sprintf("loggrep_slo_burn_rate_milli{objective=%q,window=%q}", o.label, w.name),
				"Error-budget burn rate over the window, in thousandths (1000 = sustainable rate)",
				func() int64 { return int64(e.windowBurn(o, w.minutes) * 1000) })
		}
		reg.Gauge(fmt.Sprintf("loggrep_slo_error_budget_remaining_milli{objective=%q}", o.label),
			"Share of the error budget left since process start, in thousandths of the whole budget",
			func() int64 {
				st := e.status(o)
				return int64(st.BudgetRemaining * 1000)
			})
		e.objectives = append(e.objectives, o)
	}
	return e
}

// OnFastBurn installs the fast-burn hook (loggrepd wires the
// flight-recorder trigger here). Safe to call at any time; nil clears.
func (e *Engine) OnFastBurn(fn func(objective string)) {
	if fn == nil {
		e.onFastBurn.Store(nil)
		return
	}
	e.onFastBurn.Store(&fn)
}

// Record classifies one finished request: availability objectives count
// an HTTP 5xx as bad; latency objectives additionally require the
// duration under their threshold. Requests with no written response
// (status 0: the client vanished) and client errors (4xx, including
// 429 shed) are not SLI events. Safe on the hot path: a few atomic adds
// and one short per-objective critical section, with burn evaluation
// rate-limited to once a second.
func (e *Engine) Record(status int, dur time.Duration) {
	if len(e.objectives) == 0 {
		return
	}
	if status < 200 || (status >= 300 && status < 500) {
		return
	}
	serverErr := status >= 500
	ep := e.now().Unix() / 60
	for _, o := range e.objectives {
		bad := serverErr
		if !bad && o.LatencyThreshold > 0 && dur > o.LatencyThreshold {
			bad = true
		}
		o.mu.Lock()
		b := o.ring.advance(ep)
		if bad {
			b.bad++
			o.bad++
		} else {
			b.good++
			o.good++
		}
		o.mu.Unlock()
		if bad {
			o.cBad.Inc()
		} else {
			o.cGood.Inc()
		}
	}
	e.maybeEvaluate()
}

// maybeEvaluate runs the burn-rate evaluation at most once per second.
func (e *Engine) maybeEvaluate() {
	now := e.now().Unix()
	last := e.lastEval.Load()
	if now == last || !e.lastEval.CompareAndSwap(last, now) {
		return
	}
	e.Evaluate()
}

// Evaluate recomputes every objective's burn state immediately, firing
// edge-triggered fast/slow hooks and counters. Called automatically by
// Record (rate-limited); exported for tests and the status endpoints.
func (e *Engine) Evaluate() {
	for _, o := range e.objectives {
		ep := e.now().Unix() / 60
		o.mu.Lock()
		o.ring.advance(ep)
		fast := o.burn(5) >= FastBurnThreshold && o.burn(60) >= FastBurnThreshold
		slow := o.burn(30) >= SlowBurnThreshold && o.burn(360) >= SlowBurnThreshold
		fastEdge := fast && !o.fast
		slowEdge := slow && !o.slow
		o.fast, o.slow = fast, slow
		o.mu.Unlock()
		if slowEdge {
			e.cSlow.Inc()
		}
		if fastEdge {
			e.cFast.Inc()
			if fn := e.onFastBurn.Load(); fn != nil {
				(*fn)(o.Name)
			}
		}
	}
}

// windowBurn reads one objective's burn rate over a trailing window (a
// gauge callback).
func (e *Engine) windowBurn(o *objectiveState, minutes int64) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ring.advance(e.now().Unix() / 60)
	return o.burn(minutes)
}

// ObjectiveStatus is one objective's row in the GET /v1/slo payload.
type ObjectiveStatus struct {
	Name               string  `json:"name"`
	Target             float64 `json:"target"`
	WindowSeconds      float64 `json:"window_seconds"`
	LatencyThresholdMS float64 `json:"latency_threshold_ms,omitempty"`
	// Good/Bad are since-start totals; Compliance their ratio (1 with
	// no traffic: an idle service is meeting its SLO).
	Good       int64   `json:"good"`
	Bad        int64   `json:"bad"`
	Compliance float64 `json:"compliance"`
	// BudgetRemaining approximates the unspent error budget in [0,1],
	// from since-start totals prorated to the objective window (the
	// process has no persistent 30d history; a restart resets it).
	BudgetRemaining float64 `json:"budget_remaining"`
	Burn5m          float64 `json:"burn_5m"`
	Burn30m         float64 `json:"burn_30m"`
	Burn1h          float64 `json:"burn_1h"`
	Burn6h          float64 `json:"burn_6h"`
	FastBurn        bool    `json:"fast_burn"`
	SlowBurn        bool    `json:"slow_burn"`
}

func (e *Engine) status(o *objectiveState) ObjectiveStatus {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ring.advance(e.now().Unix() / 60)
	st := ObjectiveStatus{
		Name:               o.Name,
		Target:             o.Target,
		WindowSeconds:      o.Window.Seconds(),
		LatencyThresholdMS: float64(o.LatencyThreshold.Microseconds()) / 1000,
		Good:               o.good,
		Bad:                o.bad,
		Compliance:         1,
		BudgetRemaining:    1,
		Burn5m:             o.burn(5),
		Burn30m:            o.burn(30),
		Burn1h:             o.burn(60),
		Burn6h:             o.burn(360),
		FastBurn:           o.fast,
		SlowBurn:           o.slow,
	}
	if total := o.good + o.bad; total > 0 {
		st.Compliance = float64(o.good) / float64(total)
		if budget := 1 - o.Target; budget > 0 {
			consumed := (float64(o.bad) / float64(total)) / budget
			st.BudgetRemaining = 1 - consumed
			if st.BudgetRemaining < 0 {
				st.BudgetRemaining = 0
			}
		}
	}
	return st
}

// Snapshot reads every objective's live status, in declaration order.
func (e *Engine) Snapshot() []ObjectiveStatus {
	out := make([]ObjectiveStatus, 0, len(e.objectives))
	for _, o := range e.objectives {
		out = append(out, e.status(o))
	}
	return out
}
