package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/accel"
	"repro/internal/suite"
)

// suiteSource is the job source cmd/dvfserved wires: cycle the spec's
// test-job pool.
func suiteSource(bench string, n int, seed int64) ([]accel.Job, error) {
	spec, err := suite.ByName(bench)
	if err != nil {
		return nil, err
	}
	pool := spec.TestJobs(seed)
	if len(pool) == 0 {
		return nil, fmt.Errorf("no jobs for %s", bench)
	}
	jobs := make([]accel.Job, n)
	for i := range jobs {
		jobs[i] = pool[i%len(pool)]
	}
	return jobs, nil
}

// call serves one request on h in-process and returns the status and
// body.
func call(h http.Handler, method, path, body string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// TestHTTPAPI drives the full dvfserved HTTP surface end to end against
// the daemon's default configuration — one predict-routed replica over
// a live trained predictor: submit a stream, drain, read stats, the
// model and metrics, and exercise the error paths.
func TestHTTPAPI(t *testing.T) {
	lab := quickLab(t)
	fleet := NewFleet()
	if _, err := fleet.AddPool(poolCfgFor(t, lab, "aes", 1, 128)); err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	h := NewAPI(fleet, suiteSource).Handler()
	get := func(path string) (int, string) { return call(h, "GET", path, "") }
	post := func(path, body string) (int, string) { return call(h, "POST", path, body) }

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, body := get("/v1/benchmarks"); code != 200 || !strings.Contains(body, `"aes"`) {
		t.Fatalf("benchmarks: %d %q", code, body)
	}

	// Error paths before any load.
	if code, _ := get("/v1/jobs"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/jobs = %d, want 405", code)
	}
	if code, _ := post("/v1/jobs", "{not json"); code != http.StatusBadRequest {
		t.Errorf("bad body = %d, want 400", code)
	}
	if code, _ := post("/v1/jobs", `{"bench":"nope","count":1}`); code != http.StatusNotFound {
		t.Errorf("unknown bench = %d, want 404", code)
	}
	if code, _ := post("/v1/jobs", `{"bench":"aes","count":0}`); code != http.StatusBadRequest {
		t.Errorf("zero count = %d, want 400", code)
	}
	if code, _ := get("/v1/drain"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/drain = %d, want 405", code)
	}
	if code, _ := post("/v1/retire", `{"bench":"aes","replica":"aes/0"}`); code != http.StatusConflict {
		t.Errorf("retiring the last replica = %d, want 409", code)
	}

	// Submit a periodic stream, then a second batch: arrivals must
	// continue the same virtual-time stream, not restart at zero.
	var jr JobsResponse
	code, body := post("/v1/jobs", `{"bench":"aes","count":8,"seed":7}`)
	if code != 200 {
		t.Fatalf("jobs: %d %q", code, body)
	}
	if err := json.Unmarshal([]byte(body), &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Accepted != 8 || jr.Shed != 0 || jr.Errors != 0 {
		t.Fatalf("accepted %d shed %d errors %d, want 8/0/0", jr.Accepted, jr.Shed, jr.Errors)
	}
	firstLast := jr.Last
	code, body = post("/v1/jobs", `{"bench":"aes","count":4,"seed":7,"poisson":true,"rate_hz":30}`)
	if code != 200 {
		t.Fatalf("second jobs: %d %q", code, body)
	}
	if err := json.Unmarshal([]byte(body), &jr); err != nil {
		t.Fatal(err)
	}
	if jr.First <= firstLast {
		t.Errorf("second batch restarted the clock: first %g <= previous last %g", jr.First, firstLast)
	}
	if jr.Accepted+jr.Shed != 4 || jr.Errors != 0 {
		t.Fatalf("second batch: accepted %d shed %d errors %d of 4", jr.Accepted, jr.Shed, jr.Errors)
	}
	served := 8 + jr.Accepted

	if code, body := post("/v1/drain", ""); code != 200 || !strings.Contains(body, "drained") {
		t.Fatalf("drain: %d %q", code, body)
	}

	code, body = get("/v1/stats")
	if code != 200 {
		t.Fatalf("stats: %d", code)
	}
	var stats []PoolStats
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats) != 1 || stats[0].Policy != "predict" || len(stats[0].Replicas) != 1 ||
		stats[0].Submitted != 12 || stats[0].Fleet.Done != uint64(served) || stats[0].Replicas[0].QueueDepth != 0 {
		t.Fatalf("stats = %+v", stats)
	}

	// The /v1/model payload: the pool's live, offline-trained model.
	code, body = get("/v1/model")
	if code != 200 {
		t.Fatalf("model: %d", code)
	}
	var models []ModelStatus
	if err := json.Unmarshal([]byte(body), &models); err != nil {
		t.Fatal(err)
	}
	e, err := lab.Entry("aes")
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Pool != "aes" || models[0].Version != 0 || models[0].Online ||
		len(models[0].Model) != len(e.Pred.Kept) || models[0].Trainer.State != "off" {
		t.Fatalf("model = %+v", models)
	}

	code, body = get("/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	sliceEng, fullEng := e.Pred.Engines()
	n := fmt.Sprint(served)
	for _, want := range []string{
		`dvfserved_jobs_done_total{shard="aes/0"} ` + n,
		`dvfserved_latency_seconds_count{shard="aes/0"} ` + n,
		`dvfserved_latency_seconds_bucket{shard="aes/0",le="+Inf"} ` + n,
		`dvfserved_queue_depth{shard="aes/0"} 0`,
		`dvfserved_bound_clamps_total{shard="aes/0"}`,
		"# TYPE dvfserved_energy_joules_total counter",
		"# TYPE dvfserved_predict_ns histogram",
		`dvfserved_predict_ns_count{pool="aes",engine="` + string(sliceEng) + `"} 12`,
		"# TYPE dvfserved_execute_ns histogram",
		`dvfserved_execute_ns_count{pool="aes",engine="` + string(fullEng) + `"} 12`,
		`dvfscluster_jobs_submitted_total{pool="aes",policy="predict"} 12`,
		`dvfscluster_job_errors_total{pool="aes",policy="predict"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Bound-clamp wiring: force a clamp on the pool's predictor (an
	// absurd feature vector predicts far past the static maximum) and
	// the count must surface in the replica's stats snapshot.
	huge := make([]float64, len(e.Pred.Kept))
	for i := range huge {
		huge[i] = 1e12
	}
	e.Pred.PredFromSliceOrFloor(huge)
	if st := fleet.Pool("aes").Stats(); st.Replicas[0].BoundClamps == 0 {
		t.Error("stats BoundClamps = 0 after a forced clamp")
	}
}

// gatePolicy holds the router inside its routing section: Pick signals
// entered, then blocks until release is closed.
type gatePolicy struct{ entered, release chan struct{} }

func (g gatePolicy) Name() string { return "gate" }

func (g gatePolicy) Pick(cands []Candidate, key string) int {
	g.entered <- struct{}{}
	<-g.release
	return 0
}

// TestJobsForOnePoolDoNotBlockAnother: routing simulates synchronously,
// so a POST /v1/jobs holds its pool for as long as its jobs take. It
// must hold only that pool: while a request for pool "a" is parked
// inside its routing section, a POST for pool "b" completes.
func TestJobsForOnePoolDoNotBlockAnother(t *testing.T) {
	lab := quickLab(t)
	gate := gatePolicy{entered: make(chan struct{}, 1), release: make(chan struct{})}
	fleet := NewFleet()
	defer fleet.Close()
	for _, name := range []string{"a", "b"} {
		cfg := poolCfgFor(t, lab, "aes", 1, 0)
		cfg.Shard.Name = name
		if name == "a" {
			cfg.Policy = gate
		}
		if _, err := fleet.AddPool(cfg); err != nil {
			t.Fatal(err)
		}
	}
	aesJobs := func(_ string, n int, seed int64) ([]accel.Job, error) { return suiteSource("aes", n, seed) }
	h := NewAPI(fleet, aesJobs).Handler()
	post := func(bench string, count int, done chan<- string) {
		_, body := call(h, "POST", "/v1/jobs", fmt.Sprintf(`{"bench":%q,"count":%d}`, bench, count))
		done <- body
	}
	aDone, bDone := make(chan string, 1), make(chan string, 1)
	go post("a", 1, aDone)
	<-gate.entered // pool a's request is now inside its routing section
	go post("b", 2, bDone)
	var bBody string
	select {
	case bBody = <-bDone:
	case <-time.After(30 * time.Second):
		t.Error("POST for pool b blocked behind pool a's routing section")
	}
	close(gate.release)
	if bBody == "" {
		bBody = <-bDone
	}
	for _, c := range []struct {
		pool, body string
		want       int
	}{{"a", <-aDone, 1}, {"b", bBody, 2}} {
		var jr JobsResponse
		if err := json.Unmarshal([]byte(c.body), &jr); err != nil || jr.Accepted != c.want {
			t.Errorf("pool %s: %q (%v), want %d accepted", c.pool, c.body, err, c.want)
		}
	}
}

// TestMetricsExposeNativeFallbacks checks the /metrics surface carries
// the replica shards' series and the process-wide native fallback
// counter, so a stale generated-simulator registry is visible in a
// running fleet.
func TestMetricsExposeNativeFallbacks(t *testing.T) {
	fleet := NewFleet()
	if _, err := fleet.AddPool(testConfig("p", 2)); err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	_, body := call(NewAPI(fleet, nil).Handler(), "GET", "/metrics", "")
	for _, want := range []string{
		`dvfserved_jobs_done_total{shard="p/0"} 0`,
		"# TYPE dvfserved_native_fallbacks_total counter",
		"\ndvfserved_native_fallbacks_total ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
