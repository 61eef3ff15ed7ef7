package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

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

// syncBuffer is a bytes.Buffer safe for one writer and one reader.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunDrainsOnSignal drives run as main does, with the context
// main cancels on SIGTERM or SIGINT, and cancels it while a POST
// /v1/jobs is still routing its jobs. The request must complete with
// every job accounted for, run must return nil (exit 0), and its
// closing report must give every accepted job an outcome.
func TestRunDrainsOnSignal(t *testing.T) {
	t.Cleanup(func() { core.SetFaultInjector(nil) })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-quick", "-benchmarks", "aes", "-addr", "127.0.0.1:0"}, out, io.Discard)
	}()
	var addr string
	for addr == "" {
		select {
		case err := <-done:
			t.Fatalf("run returned before listening: %v\n%s", err, out)
		case <-time.After(10 * time.Millisecond):
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "dvfserved: listening on "); ok {
				addr, _, _ = strings.Cut(rest, ",")
			}
		}
	}
	const count = 20000
	type jobsResult struct {
		status                 int
		Accepted, Shed, Errors int
		err                    error
	}
	posted := make(chan jobsResult, 1)
	go func() {
		var jr jobsResult
		resp, err := http.Post("http://"+addr+"/v1/jobs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"bench":"aes","count":%d}`, count)))
		if err == nil {
			jr.status = resp.StatusCode
			err = json.NewDecoder(resp.Body).Decode(&jr)
			resp.Body.Close()
		}
		jr.err = err
		posted <- jr
	}()
	// Signal once the request is routing.
	var submitted uint64
	for submitted == 0 {
		resp, err := http.Get("http://" + addr + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st []cluster.PoolStats
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || len(st) != 1 {
			t.Fatalf("stats %+v: %v", st, err)
		}
		submitted = st[0].Submitted
	}
	cancel()
	jr := <-posted
	if jr.err != nil || jr.status != http.StatusOK || jr.Accepted+jr.Shed+jr.Errors != count {
		t.Fatalf("POST /v1/jobs in flight at the signal: %d %+v", jr.status, jr)
	}
	if err := <-done; err != nil {
		t.Fatalf("run after the signal: %v", err)
	}
	if submitted == count {
		t.Logf("the request had routed every job before the signal")
	}
	var sub, doneJobs, shed, errs int
	report := out.String()
	report = report[max(0, strings.LastIndex(report, "dvfserved: aes: ")):]
	if _, err := fmt.Sscanf(report, "dvfserved: aes: %d submitted, %d done, %d shed, %d errors",
		&sub, &doneJobs, &shed, &errs); err != nil {
		t.Fatalf("no closing report: %v\n%s", err, out)
	}
	if sub != count || doneJobs != jr.Accepted || shed != jr.Shed || errs != jr.Errors {
		t.Fatalf("closing report: %d submitted, %d done, %d shed, %d errors; the POST accepted %d, shed %d, failed %d of %d",
			sub, doneJobs, shed, errs, jr.Accepted, jr.Shed, jr.Errors, count)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("the server still answers after the drain")
	}
}

// TestRunFailsWhenAddressTaken: a server that cannot listen is an
// error, returned after the fleet is closed, not a hang.
func TestRunFailsWhenAddressTaken(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	err = run(context.Background(), []string{"-quick", "-benchmarks", "aes", "-addr", ln.Addr().String()}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("run served on an address already in use")
	}
}
