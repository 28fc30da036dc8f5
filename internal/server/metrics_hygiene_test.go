package server

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"loggrep/internal/liveops"
	"loggrep/internal/obsv"

	// Link in every metric-registering package so the hygiene sweep sees
	// the process's full metric surface, not just the server's.
	_ "loggrep/internal/archive"
	_ "loggrep/internal/blobstore"
	_ "loggrep/internal/ingest"
	_ "loggrep/internal/otlp"
)

// Prometheus data-model grammar for metric and label names.
var (
	promNameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// TestMetricHygiene sweeps every metric registered anywhere in the
// process: each must carry the loggrep_ prefix (one namespace, no
// collisions with co-resident exporters), non-empty HELP text (the
// OPERATIONS.md contract), and names/labels valid under the Prometheus
// data model — which also guarantees the OTLP push never emits a name a
// collector rejects.
func TestMetricHygiene(t *testing.T) {
	registerRuntimeGauges() // normally done in Handler(); force the full surface

	// Exercise the live-ops plane on the default registry so its dynamic
	// label families (loggrep_tenant_*{tenant=}, loggrep_slo_*{objective=})
	// enter the sweep — including the cardinality guard: more tenants than
	// the cap must fold into the OverflowTenant label, not mint new ones.
	const maxTenants = liveops.MaxTenants
	plane := liveops.New(liveops.Config{
		Registry:   obsv.Default,
		Objectives: []liveops.Objective{{Name: "hygiene", Target: 0.99, Window: 24 * time.Hour}},
	})
	for i := 0; i < 3*maxTenants; i++ {
		plane.Usage.Record(fmt.Sprintf("hyg-tenant-%d", i), liveops.Usage{Requests: 1, ScanBytes: 64})
	}
	plane.SLO.Record(200, time.Millisecond)
	plane.SLO.Evaluate()

	points := obsv.Default.Snapshot()
	if len(points) < 20 {
		t.Fatalf("only %d metrics registered; the hygiene sweep is not seeing the full surface", len(points))
	}
	seen := map[string]bool{}
	for _, p := range points {
		key := p.Name
		for _, l := range p.Labels {
			key += "|" + l.Key + "=" + l.Value
		}
		if seen[key] {
			t.Errorf("metric %s registered twice", key)
		}
		seen[key] = true
		if !strings.HasPrefix(p.Name, "loggrep_") {
			t.Errorf("metric %s lacks the loggrep_ prefix", key)
		}
		if !promNameRE.MatchString(p.Name) {
			t.Errorf("metric %s is not a valid Prometheus name", key)
		}
		if strings.TrimSpace(p.Help) == "" {
			t.Errorf("metric %s has no HELP text", key)
		}
		for _, l := range p.Labels {
			if !promLabelRE.MatchString(l.Key) {
				t.Errorf("metric %s label %q is not a valid Prometheus label name", key, l.Key)
			}
			if l.Key == "_raw" {
				t.Errorf("metric %s has an unparsable label suffix (registered as %q)", p.Name, l.Value)
			}
			if strings.ContainsAny(l.Value, "\"\n\\") {
				t.Errorf("metric %s label %s value %q needs escaping", key, l.Key, l.Value)
			}
		}
		if p.Kind == obsv.KindCounter && !strings.HasSuffix(p.Name, "_total") {
			t.Errorf("counter %s should end in _total", key)
		}
	}

	// The live-ops families made it into the sweep, and the tenant label
	// stayed bounded: at most maxTenants distinct tenants plus the
	// overflow aggregate, no matter how many tenants sent traffic.
	tenantVals := map[string]bool{}
	sawSLO := false
	for _, p := range points {
		if strings.HasPrefix(p.Name, "loggrep_tenant_") {
			for _, l := range p.Labels {
				if l.Key == "tenant" {
					tenantVals[l.Value] = true
				}
			}
		}
		if strings.HasPrefix(p.Name, "loggrep_slo_") {
			sawSLO = true
		}
	}
	if len(tenantVals) == 0 || !sawSLO {
		t.Fatal("live-ops metric families missing from the hygiene sweep")
	}
	if len(tenantVals) > maxTenants+1 {
		t.Errorf("tenant label cardinality %d exceeds cap %d+overflow: %v",
			len(tenantVals), maxTenants, tenantVals)
	}
	if !tenantVals[liveops.OverflowTenant] {
		t.Errorf("overflow tenants did not aggregate under %q: %v", liveops.OverflowTenant, tenantVals)
	}
}
