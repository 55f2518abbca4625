package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// TestChaosDegradedGolden pins the -short chaos and degraded tables, event
// counts included, to the bytes `nexus-bench -run chaos,degraded -short`
// prints on stdout. Both sweeps drive the frontend's retry path through
// crash, transient, and partition faults, so any change to retry or
// failover behaviour shows up here. Rewrite with -update after an
// intentional change.
func TestChaosDegradedGolden(t *testing.T) {
	var b strings.Builder
	for _, id := range []string{"chaos", "degraded"} {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		rc := NewRunContext(true)
		tab, err := e.Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(tab.String())
		fmt.Fprintf(&b, "  (%d simulation events)\n\n", rc.Events())
	}
	checkGolden(t, filepath.Join("testdata", "chaos_degraded_short.golden"), b.String())
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s (rerun with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
