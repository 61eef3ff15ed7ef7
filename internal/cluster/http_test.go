package cluster

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestMetricsExposeNativeFallbacks checks the cluster /metrics surface
// carries the replica shards' series and the process-wide native
// fallback counter, so a stale generated-simulator registry is visible
// in a running fleet.
func TestMetricsExposeNativeFallbacks(t *testing.T) {
	fleet := NewFleet()
	if _, err := fleet.AddPool(testConfig("p", 2)); err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	rec := httptest.NewRecorder()
	NewAPI(fleet, nil).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`dvfserved_jobs_done_total{shard="p/0"} 0`,
		"# TYPE dvfscluster_native_fallbacks_total counter",
		"\ndvfscluster_native_fallbacks_total ",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
