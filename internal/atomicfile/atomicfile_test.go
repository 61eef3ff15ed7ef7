package atomicfile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
)

type artifact struct {
	S string
	Y []float64
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// noTemps fails the test if any temp file survives in dir.
func noTemps(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("leaked temp file %s", e.Name())
		}
	}
}

// TestWriteFileReplaces: a write creates the file with mode 0644, and
// a second write replaces it whole.
func TestWriteFileReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	for _, want := range []string{"first, and longer than the second", "second"} {
		if err := WriteFile(path, []byte(want), nil); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("read %q, want %q", got, want)
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, want 0644", st.Mode().Perm())
	}
	noTemps(t, filepath.Dir(path))
}

// TestCrossHandleConcurrentWriters hammers a small set of files with
// concurrent writers and readers (the multi-process scenario: each
// writer picks its own temp file). Unique O_EXCL temp names mean no
// two writers can tear each other's files: every read must see either
// no file yet or one complete value ever written to it.
func TestCrossHandleConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	const writers, rounds, files = 6, 30, 3
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				path := filepath.Join(dir, fmt.Sprintf("f%d.json", (w+r)%files))
				data, err := json.Marshal(artifact{S: "complete", Y: []float64{float64(w), float64(r)}})
				if err != nil {
					t.Error(err)
					return
				}
				if err := WriteFile(path, data, nil); err != nil {
					t.Error(err)
					return
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Error(err)
					return
				}
				var out artifact
				if err := json.Unmarshal(raw, &out); err != nil || out.S != "complete" || len(out.Y) != 2 {
					t.Errorf("torn read of %s: %q", path, raw)
					return
				}
			}
		}()
	}
	wg.Wait()
	noTemps(t, dir)
}

// TestInjectedWriteFaultsLeaveNoPartialEntry: injected write and rename
// failures return errors marked injected, keep the previous file
// byte-identical, and leak no temp files.
func TestInjectedWriteFaultsLeaveNoPartialEntry(t *testing.T) {
	for _, site := range []string{FaultWrite, FaultRename} {
		t.Run(site, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "entry.json")
			prev := mustJSON(t, artifact{S: "previous"})
			if err := WriteFile(path, prev, nil); err != nil {
				t.Fatal(err)
			}
			err := WriteFile(path, mustJSON(t, artifact{S: "next"}), fault.New(5).Site(site, 1))
			if err == nil {
				t.Fatalf("%s: injected fault did not surface", site)
			}
			if !fault.Injected(err) {
				t.Fatalf("%s: error %v not marked injected", site, err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, prev) {
				t.Fatalf("%s: failed write damaged the previous file: %q", site, got)
			}
			noTemps(t, dir)
		})
	}
}

// TestInjectedFaultScheduleIsDeterministic: with a fractional rate, the
// set of files whose write faults is a pure function of the seed — two
// directories written under the same schedule agree name by name.
func TestInjectedFaultScheduleIsDeterministic(t *testing.T) {
	write := func() []bool {
		dir := t.TempDir()
		in := fault.New(11).Site(FaultWrite, 0.5)
		failed := make([]bool, 40)
		for i := range failed {
			path := filepath.Join(dir, fmt.Sprintf("%064x.json", i))
			err := WriteFile(path, []byte("v"), in)
			if err != nil && !fault.Injected(err) {
				t.Fatal(err)
			}
			failed[i] = err != nil
			if _, serr := os.Stat(path); (serr == nil) == failed[i] {
				t.Fatalf("file %d: write error %v but stat error %v", i, err, serr)
			}
		}
		noTemps(t, dir)
		return failed
	}
	a, b := write(), write()
	faulted := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault schedule diverged at file %d", i)
		}
		if a[i] {
			faulted++
		}
	}
	if faulted == 0 || faulted == len(a) {
		t.Fatalf("rate-0.5 schedule faulted %d/%d files", faulted, len(a))
	}
}
