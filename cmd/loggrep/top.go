package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"strings"
	"time"

	"loggrep/internal/liveops"
)

// The /v1/inflight, /v1/usage and /v1/slo response envelopes. The row
// types are the server's own (shared module), so the renderer cannot
// drift from the wire shape.
type inflightPayload struct {
	Inflight []liveops.EntryView `json:"inflight"`
	Count    int                 `json:"count"`
}

type usagePayload struct {
	Tenants []liveops.TenantUsage `json:"tenants"`
}

type sloPayload struct {
	Objectives []liveops.ObjectiveStatus `json:"objectives"`
}

// newTopCmd is `loggrep top`: a refreshing terminal view of a running
// loggrepd's live operations plane — who is in flight and how far along,
// what each tenant is consuming, and how fast each SLO's error budget is
// burning. -once prints a single snapshot (scripts and tests); the
// default loops like top(1), clearing the screen each refresh.
func newTopCmd() *command {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	server := fs.String("server", "http://localhost:8080", "base URL of the loggrepd to watch")
	interval := fs.Duration("interval", 2*time.Second, "refresh cadence")
	once := fs.Bool("once", false, "print one snapshot and exit instead of refreshing")
	c := &command{
		name:    "top",
		summary: "live view of a loggrepd: in-flight requests, tenant usage, SLO burn",
		fs:      fs,
	}
	c.run = func() error {
		base := strings.TrimSuffix(*server, "/")
		client := &http.Client{Timeout: 10 * time.Second}
		for {
			out, err := renderTop(client, base)
			if err != nil {
				return err
			}
			if *once {
				fmt.Print(out)
				return nil
			}
			fmt.Print("\x1b[2J\x1b[H" + out)
			time.Sleep(*interval)
		}
	}
	return c
}

func fetchJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// renderTop fetches the three live-ops endpoints and renders one frame.
func renderTop(client *http.Client, base string) (string, error) {
	var inf inflightPayload
	var usg usagePayload
	var slo sloPayload
	if err := fetchJSON(client, base+"/v1/inflight", &inf); err != nil {
		return "", err
	}
	if err := fetchJSON(client, base+"/v1/usage", &usg); err != nil {
		return "", err
	}
	if err := fetchJSON(client, base+"/v1/slo", &slo); err != nil {
		return "", err
	}
	var w strings.Builder
	fmt.Fprintf(&w, "loggrep top  %s  %s\n", base, time.Now().Format("15:04:05"))
	fmt.Fprintf(&w, "\nin-flight (%d):\n", inf.Count)
	if len(inf.Inflight) == 0 {
		fmt.Fprintf(&w, "  (idle)\n")
	} else {
		fmt.Fprintf(&w, "  %-16s  %-12s  %-8s  %9s  %-7s  %13s  %9s  %6s  %s\n",
			"id", "tenant", "endpoint", "age", "stage", "blocks", "scanned", "budget", "query")
		for _, e := range inf.Inflight {
			q := e.Query
			if e.Source != "" {
				q = e.Source + ": " + q
			}
			if len(q) > 40 {
				q = q[:37] + "..."
			}
			blocks := "-"
			if e.BlocksTotal > 0 {
				blocks = fmt.Sprintf("%d+%d/%d", e.BlocksSearched, e.BlocksSkipped, e.BlocksTotal)
			}
			fmt.Fprintf(&w, "  %-16s  %-12s  %-8s  %9s  %-7s  %13s  %9s  %5.0f%%  %s\n",
				clip(e.ID, 16), clip(e.Tenant, 12), e.Endpoint,
				(time.Duration(e.AgeMS * float64(time.Millisecond))).Round(time.Millisecond),
				e.Stage, blocks, sizeMB(e.BytesScanned), e.BudgetFraction*100, q)
		}
	}

	fmt.Fprintf(&w, "\ntenant usage (since start):\n")
	if len(usg.Tenants) == 0 {
		fmt.Fprintf(&w, "  (no traffic yet)\n")
	} else {
		fmt.Fprintf(&w, "  %-16s  %8s  %6s  %9s  %9s  %9s  %9s  %9s\n",
			"tenant", "requests", "errors", "scanned", "decomp", "ingest", "lines", "cpu")
		for _, t := range usg.Tenants {
			u := t.Total
			fmt.Fprintf(&w, "  %-16s  %8d  %6d  %9s  %9d  %9s  %9d  %9s\n",
				clip(t.Tenant, 16), u.Requests, u.Errors, sizeMB(u.ScanBytes),
				u.Decompressions, sizeMB(u.IngestBytes), u.IngestLines,
				time.Duration(u.CPUNanos).Round(time.Millisecond))
		}
	}

	fmt.Fprintf(&w, "\nslo:\n")
	if len(slo.Objectives) == 0 {
		fmt.Fprintf(&w, "  (no objectives; start loggrepd with -slo)\n")
	} else {
		fmt.Fprintf(&w, "  %-16s  %7s  %10s  %7s  %7s  %7s  %7s  %s\n",
			"objective", "target", "compliance", "budget", "burn5m", "burn1h", "burn6h", "state")
		for _, o := range slo.Objectives {
			state := "ok"
			switch {
			case o.FastBurn:
				state = "FAST BURN"
			case o.SlowBurn:
				state = "slow burn"
			}
			fmt.Fprintf(&w, "  %-16s  %6.2f%%  %9.3f%%  %6.0f%%  %7.1f  %7.1f  %7.1f  %s\n",
				clip(o.Name, 16), o.Target*100, o.Compliance*100, o.BudgetRemaining*100,
				o.Burn5m, o.Burn1h, o.Burn6h, state)
		}
	}
	return w.String(), nil
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}

func sizeMB(b int64) string {
	switch {
	case b == 0:
		return "0"
	case b < 1<<20:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	}
}
