package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"loggrep/internal/archive"
	"loggrep/internal/faultinject"
	"loggrep/internal/ingest"
	"loggrep/internal/liveops"
	"loggrep/internal/loggen"
	"loggrep/internal/obsv"
)

// newStressServer builds a Server with one fresh (never-queried) archive
// source named "arc", so a read hook installed on it fires on the first
// query of every block. Its live operations plane, on a private metric
// registry, evaluates the given SLO objectives.
func newStressServer(t *testing.T, objectives ...liveops.Objective) *Server {
	t.Helper()
	lt, _ := loggen.ByName("A")
	block := lt.Block(11, 2500)
	aopts := archive.DefaultOptions()
	aopts.BlockBytes = 25_000
	data, err := archive.Compress(block, aopts)
	if err != nil {
		t.Fatal(err)
	}
	sv := New(liveops.Config{Registry: obsv.NewRegistry(), Objectives: objectives})
	if err := sv.Load("arc", data); err != nil {
		t.Fatal(err)
	}
	return sv
}

// waitGoroutinesSettle polls until the goroutine count drops back to
// roughly its starting value; lingering goroutines mean a query path
// leaked one past its response.
func waitGoroutinesSettle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		now := runtime.NumGoroutine()
		if now <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle: %d before, %d after\n%s", before, now, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAdmissionControlStress saturates a MaxConcurrent=2 server with 32
// concurrent queries against a source whose reads are gated shut, so
// exactly 2 execute, 4 wait in the queue, and the other 26 are shed with
// 429 + Retry-After. Opening the gate lets the 6 admitted queries finish
// with 200. Every request gets exactly one response, each either 200 or
// 429, and no goroutine outlives its request.
func TestAdmissionControlStress(t *testing.T) {
	gBefore := runtime.NumGoroutine()
	sv := newStressServer(t)
	sv.MaxConcurrent = 2 // queue depth defaults to 2x = 4
	sv.QueryTimeout = 0  // gated queries must block, not time out

	// Gate every block read: admitted queries park inside the handler
	// holding their semaphore slot until the gate opens.
	gate := make(chan struct{})
	sv.sources["arc"].arch.SetReadHook(func(ctx context.Context) error {
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})

	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	const n = 32
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/v1/query?source=arc&q=ERROR")
			if err != nil {
				codes <- -1
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				codes <- -2
				return
			}
			codes <- resp.StatusCode
		}()
	}

	// While the gate is shut no slot ever frees, so every request beyond
	// the 2+4 admitted ones is shed immediately: the first 26 responses
	// must all be 429s. Collecting them before opening the gate makes the
	// split deterministic even if some client goroutines start late.
	count := map[int]int{}
	for i := 0; i < n-6; i++ {
		code := <-codes
		if code != http.StatusTooManyRequests {
			t.Fatalf("response %d while gate shut: got %d, want 429", i, code)
		}
		count[code]++
	}
	close(gate)
	for i := 0; i < 6; i++ {
		code := <-codes
		if code != http.StatusOK {
			t.Fatalf("admitted request got %d, want 200", code)
		}
		count[code]++
	}
	if count[http.StatusOK] != 6 || count[http.StatusTooManyRequests] != 26 {
		t.Fatalf("response split = %v, want 6x200 + 26x429", count)
	}

	ts.Client().CloseIdleConnections()
	ts.Close()
	waitGoroutinesSettle(t, gBefore)
}

// TestStalledQueryTimesOutOverHTTP: with every block read stalled far
// beyond the deadline, a request carrying ?timeout_ms= gets its 504
// within ~2x that deadline — the end-to-end form of the tentpole
// acceptance criterion.
func TestStalledQueryTimesOutOverHTTP(t *testing.T) {
	sv := newStressServer(t)
	sv.QueryTimeout = 0
	sv.sources["arc"].arch.SetReadHook(faultinject.SlowRead(30 * time.Second))
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()

	const deadline = 400 * time.Millisecond
	start := time.Now()
	resp, err := http.Get(fmt.Sprintf("%s/v1/query?source=arc&q=ERROR&timeout_ms=%d", ts.URL, deadline.Milliseconds()))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("stalled query returned %d, want 504", resp.StatusCode)
	}
	if elapsed > 2*deadline {
		t.Fatalf("stalled query answered after %v, want <= %v (2x deadline)", elapsed, 2*deadline)
	}

	// A bad timeout_ms is rejected before any work.
	resp, err = http.Get(ts.URL + "/v1/query?source=arc&q=ERROR&timeout_ms=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("timeout_ms=banana returned %d, want 400", resp.StatusCode)
	}
}

// TestGracefulShutdownSIGTERM drives the same path loggrepd uses: a real
// listener, signal.Notify, and a real SIGTERM — delivered while stalled
// queries are in flight. ServeGraceful must cancel them and return nil
// (loggrepd's exit 0) within the grace period, and every client must see
// one of 200, 429, 503, or a connection error from the dying server. An
// ingest batch whose body is still arriving when HardStop fires is
// refused with 503 and nothing appended, not acknowledged mid-shutdown.
func TestGracefulShutdownSIGTERM(t *testing.T) {
	sv := newStressServer(t)
	sv.QueryTimeout = 0 // keep 504 out of the contract; shutdown must do the cancelling
	m, _, err := ingest.Open(ingest.Config{Dir: t.TempDir(), SealBytes: 1 << 30, SealAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sv.Ingest = m

	// Stalls honor ctx, so HardStop's cancellation unwinds them; count
	// arrivals so the signal lands only once queries are truly in flight.
	var arrived atomic.Int32
	sv.sources["arc"].arch.SetReadHook(func(ctx context.Context) error {
		arrived.Add(1)
		return faultinject.Stall(ctx, 30*time.Second)
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	defer signal.Stop(sig)

	const grace = 3 * time.Second
	served := make(chan error, 1)
	go func() { served <- sv.ServeGraceful(ln, sig, grace) }()

	base := "http://" + ln.Addr().String()
	var wg sync.WaitGroup
	codes := make(chan int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(base + "/v1/query?source=arc&q=ERROR")
			if err != nil {
				codes <- -1 // connection torn down mid-shutdown: acceptable
				return
			}
			defer resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	for arrived.Load() == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	// The batch is admitted before the signal and held in flight by its
	// unfinished body, which completes only once HardStop has fired.
	pr, pw := io.Pipe()
	ingestCode := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/ingest?tenant=t&stream=s", "text/plain", pr)
		if err != nil {
			ingestCode <- -1
			return
		}
		resp.Body.Close()
		ingestCode <- resp.StatusCode
	}()
	waitFor(t, "the ingest request in flight", func() bool {
		for _, v := range sv.Liveops.Inflight.Snapshot() {
			if v.Endpoint == "ingest" {
				return true
			}
		}
		return false
	})
	go func() {
		<-sv.stopCtx.Done()
		io.WriteString(pw, "arrived after hard stop\n")
		pw.Close()
	}()

	start := time.Now()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeGraceful returned %v, want nil (clean drain)", err)
		}
	case <-time.After(grace + 2*time.Second):
		t.Fatal("ServeGraceful did not return within the grace period")
	}
	if elapsed := time.Since(start); elapsed > grace {
		t.Fatalf("shutdown took %v, want <= %v", elapsed, grace)
	}

	wg.Wait()
	close(codes)
	for code := range codes {
		switch code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable, -1:
		default:
			t.Fatalf("response during shutdown: %d, want 200/429/503 or a connection error", code)
		}
	}

	if code := <-ingestCode; code != http.StatusServiceUnavailable {
		t.Fatalf("ingest batch completed after HardStop answered %d, want 503", code)
	}
	if st := m.Lookup("t/s"); st != nil && st.NumLines() != 0 {
		t.Fatalf("batch refused with 503 still appended %d line(s)", st.NumLines())
	}

	// Draining is latched: a request after shutdown is refused outright.
	sv2 := newServer()
	sv2.StartDraining()
	rec := httptest.NewRecorder()
	sv2.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/query?source=x&q=a", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query on draining server returned %d, want 503", rec.Code)
	}
}

// TestHardStopCancelsRequestContexts: once HardStop returns, every request
// context already handed out is cancelled — none waits on a callback
// goroutine — so a handler looking right after cannot answer 200 where a
// 503 is due. Over 1000 fresh servers none may lag. The context still
// carries the request's trace ids and still hears the client leave.
func TestHardStopCancelsRequestContexts(t *testing.T) {
	ids := obsv.ReqIDs{TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", SpanID: "00f067aa0ba902b7"}
	lagged := 0
	for i := 0; i < 1000; i++ {
		sv := newServer()
		r := httptest.NewRequest("GET", "/v1/query?q=x", nil)
		r = r.WithContext(obsv.ContextWithIDs(r.Context(), ids))
		ctx, cancel, _, _ := sv.requestContext(r, true)
		if i == 0 && obsv.IDsFrom(ctx) != ids {
			t.Fatalf("request context carries ids %+v, want %+v", obsv.IDsFrom(ctx), ids)
		}
		sv.HardStop()
		if ctx.Err() == nil {
			lagged++
		}
		cancel()
	}
	if lagged > 0 {
		t.Fatalf("%d of 1000 request contexts were still live right after HardStop", lagged)
	}

	client, leave := context.WithCancel(context.Background())
	ctx, cancel, _, _ := newServer().requestContext(httptest.NewRequest("GET", "/v1/query?q=x", nil).WithContext(client), true)
	defer cancel()
	leave()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("request context never heard the client leave")
	}
}
