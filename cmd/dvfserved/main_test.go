package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
)

// serverQuick builds the daemon from args (with -quick -benchmarks aes
// prepended) and returns its server.
func serverQuick(t *testing.T, args ...string) *http.Server {
	t.Helper()
	// -faults installs a process-wide injector; leave none behind.
	t.Cleanup(func() { core.SetFaultInjector(nil) })
	args = append([]string{"-quick", "-benchmarks", "aes"}, args...)
	fleet, srv, err := setup(args, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	return srv
}

// serveQuick is serverQuick's handler.
func serveQuick(t *testing.T, args ...string) http.Handler {
	t.Helper()
	return serverQuick(t, args...).Handler
}

// postJobs submits a job stream and waits for the replicas to drain.
func postJobs(t *testing.T, h http.Handler, body string) {
	t.Helper()
	for _, path := range []string{"/v1/jobs", "/v1/drain"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
		}
	}
}

func stats(t *testing.T, h http.Handler) []cluster.PoolStats {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var out []cluster.PoolStats
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDefaultIsOnePredictReplica: with no routing flags the daemon
// serves each accelerator through one predict-routed replica.
func TestDefaultIsOnePredictReplica(t *testing.T) {
	h := serveQuick(t)
	postJobs(t, h, `{"bench":"aes","count":4}`)
	st := stats(t, h)
	if len(st) != 1 || st[0].Name != "aes" || st[0].Policy != "predict" || len(st[0].Replicas) != 1 {
		t.Fatalf("default fleet: %+v", st)
	}
	if st[0].Submitted != 4 || st[0].Fleet.Done != 4 {
		t.Fatalf("submitted %d, done %d, want 4/4", st[0].Submitted, st[0].Fleet.Done)
	}
}

// TestFailureFlagsApply: the stall flags reach the router in the
// default configuration — every first prediction attempt stalls and is
// retried.
func TestFailureFlagsApply(t *testing.T) {
	h := serveQuick(t, "-faults", "serve.stall=1", "-job-retries", "1", "-retry-backoff-ms", "0")
	postJobs(t, h, `{"bench":"aes","count":3}`)
	r := stats(t, h)[0].Replicas[0]
	if r.Stalled != 3 || r.Retries != 3 || r.Done != 3 {
		t.Fatalf("stalled %d retries %d done %d, want 3/3/3", r.Stalled, r.Retries, r.Done)
	}
}

// TestUnknownRouterRejected: a bad -router is a usage error, reported
// before any training starts.
func TestUnknownRouterRejected(t *testing.T) {
	if _, _, err := setup([]string{"-router", "bogus"}, io.Discard, io.Discard); !errors.Is(err, errUsage) {
		t.Fatalf("-router bogus: err %v, want a usage error", err)
	}
	if _, _, err := setup([]string{"-overflow", "degrade"}, io.Discard, io.Discard); !errors.Is(err, errUsage) {
		t.Fatalf("-overflow is gone, but setup accepted it: %v", err)
	}
}

// TestServerHasTimeouts: the server setup returns bounds how long a
// client may take to send its headers and how long an idle keep-alive
// connection stays open, and listens on -addr.
func TestServerHasTimeouts(t *testing.T) {
	srv := serverQuick(t, "-addr", "127.0.0.1:0")
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v; want %v, %v",
			srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	if readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("timeouts must be positive: %v, %v", readHeaderTimeout, idleTimeout)
	}
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Fatalf("server addr %q, handler %v", srv.Addr, srv.Handler)
	}
}
