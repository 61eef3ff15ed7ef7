package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/atomicfile"
	"repro/internal/fault"
)

// trainpred runs the command in-process and returns its stdout.
func trainpred(t *testing.T, faults *fault.Injector, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr, faults)
	return stdout.String(), err
}

// TestSaveFaultKeepsPreviousModel injects a failure into the write and
// into the rename of a -save over an existing model: the command must
// fail, the old model must stay byte-identical, and no temp file may be
// left beside it.
func TestSaveFaultKeepsPreviousModel(t *testing.T) {
	for _, site := range []string{atomicfile.FaultWrite, atomicfile.FaultRename} {
		t.Run(site, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "model.json")
			if _, err := trainpred(t, nil, "-seed", "42", "-save", path, "md"); err != nil {
				t.Fatal(err)
			}
			old, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// A clean save at seed 43 writes a different model, so an
			// unchanged file below means the failed save wrote nothing.
			other := filepath.Join(t.TempDir(), "model.json")
			if _, err := trainpred(t, nil, "-seed", "43", "-save", other, "md"); err != nil {
				t.Fatal(err)
			}
			if next, err := os.ReadFile(other); err != nil || bytes.Equal(next, old) {
				t.Fatalf("seed 43 saved the seed-42 model (err %v); the check below would prove nothing", err)
			}

			out, err := trainpred(t, fault.New(1).Site(site, 1), "-seed", "43", "-save", path, "md")
			if !fault.Injected(err) {
				t.Fatalf("save under %s returned %v, want the injected fault", site, err)
			}
			if strings.Contains(out, "saved model") {
				t.Fatalf("failed save reported success:\n%s", out)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, old) {
				t.Fatalf("failed save changed the previous model:\n%s", got)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 {
				var names []string
				for _, e := range entries {
					names = append(names, e.Name())
				}
				t.Fatalf("directory holds %v after a failed save, want only model.json", names)
			}
		})
	}
}

// TestSaveLoadSameReport: a model saved by -save loads back with -load
// and prints the same model and the same test-set report. Training
// error is not part of a saved model, so the loaded report must not
// print a train-error line, and the comparison leaves the trained
// report's out.
func TestSaveLoadSameReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	saved, err := trainpred(t, nil, "-save", path, "sha")
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := trainpred(t, nil, "-load", path, "sha")
	if err != nil {
		t.Fatal(err)
	}
	report := func(out string) string {
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			switch {
			case strings.HasPrefix(line, "saved model to "),
				strings.HasPrefix(line, "loaded sha model from "),
				strings.HasPrefix(line, "  train error:"),
				strings.HasPrefix(line, "jobs simulated:"):
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	if !strings.Contains(saved, "saved model to ") || !strings.Contains(loaded, "loaded sha model from ") {
		t.Fatalf("unexpected output:\n%s\n---\n%s", saved, loaded)
	}
	if !strings.Contains(saved, "  train error:") || strings.Contains(loaded, "train error:") {
		t.Fatalf("want a train-error line for the trained model only\n--- saved ---\n%s\n--- loaded ---\n%s", saved, loaded)
	}
	if got, want := report(loaded), report(saved); got != want {
		t.Fatalf("loaded model reports differently\n--- saved ---\n%s\n--- loaded ---\n%s", want, got)
	}
	if !strings.Contains(report(saved), "test error:") {
		t.Fatalf("report has no test error line:\n%s", saved)
	}
}
