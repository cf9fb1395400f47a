package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFailingExperimentWritesProfiles: an experiment error exits 1 and
// still flushes both profiles — the deferred writers run on every exit.
func TestFailingExperimentWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-exp", "flow", "-workload", "nosuch", "-cpuprofile", cpu, "-memprofile", heap}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "nosuch") {
		t.Errorf("stderr does not name the failing workload: %q", stderr.String())
	}
	for _, p := range []string{cpu, heap} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(p))
		}
	}
}

// TestUnknownExperimentRejected: a name that selects nothing is an error
// that lists the valid names, not a silent exit 0. The retired backend
// experiment is one such name.
func TestUnknownExperimentRejected(t *testing.T) {
	for _, exp := range []string{"nosuch", "backend"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-exp", exp}, &stdout, &stderr); code != 1 {
			t.Errorf("-exp %s: exit %d, want 1", exp, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("-exp %s printed %q", exp, stdout.String())
		}
		for _, want := range []string{"unknown experiment", "fig2", "faults", "farmscale"} {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("-exp %s: stderr %q lacks %q", exp, stderr.String(), want)
			}
		}
	}
}
