package server

import (
	"context"
	"net"
	"net/http"
	"os"
	"time"
)

// httpServer is the http.Server ServeGraceful runs.
func (sv *Server) httpServer() *http.Server {
	return &http.Server{
		Handler: sv.Handler(),
		// Slowloris guard; generous because queries arrive as one-line GETs.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		// The write timeout backstops the per-query deadline: response
		// serialization gets 30s beyond the longest allowed query.
		WriteTimeout: maxTimeout + 30*time.Second,
	}
}

// ServeGraceful serves the handler on ln until a signal arrives on sig,
// then shuts down in phases within grace:
//
//  1. Drain: stop accepting connections, refuse new queries with 503
//     (StartDraining), and give in-flight requests half the grace period
//     to finish on their own.
//  2. Cancel: HardStop cancels every in-flight query context; the
//     cooperative checkpoints in core/archive unwind them, and the
//     remaining half of the grace period lets the 503/504 responses flush.
//  3. Close: anything still alive is cut off.
//
// It returns nil on a clean (phase 1 or 2) shutdown, the serve error if
// the listener fails first, and the close error only if phase 3 was
// needed. loggrepd exits 0 exactly when this returns nil.
func (sv *Server) ServeGraceful(ln net.Listener, sig <-chan os.Signal, grace time.Duration) error {
	hs := sv.httpServer()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-sig:
	}
	mShutdowns.Inc()
	sv.StartDraining()

	half := grace / 2
	if half <= 0 {
		half = time.Nanosecond
	}
	dctx, dcancel := context.WithTimeout(context.Background(), half)
	err := hs.Shutdown(dctx)
	dcancel()
	if err == nil {
		return nil
	}

	sv.HardStop()
	dctx, dcancel = context.WithTimeout(context.Background(), half)
	err = hs.Shutdown(dctx)
	dcancel()
	if err == nil {
		return nil
	}
	return hs.Close()
}
