package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const mixedSpec = "../../examples/specs/mixed.json"

var update = flag.Bool("update", false, "rewrite the goldens from the current output")

// checkGolden compares got with the golden file, or rewrites it under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s:\n%s", path, got)
	}
}

func runSim(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	return out.String()
}

// TestKnobPrecedence checks where each knob's value comes from: the file
// when it sets the key, an explicit flag over the file, and the spec
// default when the file omits the key; without -spec, the -app defaults.
func TestKnobPrecedence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	doc := `{"gpus":4,"seed":5,"retry_budget":2,"sessions":[{"id":"a","model":"resnet50","slo_ms":100,"rate":10}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args                []string
		gpus, seed, budget  int
		epoch, retryBackoff float64
	}{
		// File values; epoch and backoff keep their spec defaults.
		{[]string{"-spec", path}, 4, 5, 2, 0, 0.001},
		// Explicit flags win, on either side of -spec.
		{[]string{"-seed", "9", "-spec", path, "-epoch", "3s", "-retry-backoff", "0s"}, 4, 9, 2, 3, 0},
		// No spec: the -app defaults.
		{nil, 16, 1, 0, 10, 0.001},
	}
	for _, c := range cases {
		d, _, err := parseArgs(c.args)
		if err != nil {
			t.Fatal(err)
		}
		if d.GPUs != c.gpus || d.Seed != int64(c.seed) || d.RetryBudget != c.budget ||
			float64(d.Epoch) != c.epoch || float64(d.RetryBackoff) != c.retryBackoff {
			t.Errorf("%v: gpus=%d seed=%d retry_budget=%d epoch=%v retry_backoff=%v", c.args,
				d.GPUs, d.Seed, d.RetryBudget, d.Epoch, d.RetryBackoff)
		}
	}
}

// TestSpecOutputMatchesGolden pins `nexus-sim -spec mixed.json` stdout.
func TestSpecOutputMatchesGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "mixed.golden"), []byte(runSim(t, "-spec", mixedSpec)))
}

// TestObsLogMatchesGolden pins the observation log of a short traced,
// forensics-on mixed run: the schema-v1 golden that nexus-obs's own
// golden tests read.
func TestObsLogMatchesGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mixed.jsonl")
	runSim(t, "-spec", mixedSpec, "-duration", "3s", "-trace", "200", "-forensics", "-obs-out", path)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("..", "nexus-obs", "testdata", "mixed.jsonl"), got)
}

// TestSpecFlagsTakeEffect checks that knob, workload and output flags act
// under -spec.
func TestSpecFlagsTakeEffect(t *testing.T) {
	base := runSim(t, "-spec", mixedSpec, "-duration", "10s")
	if runSim(t, "-spec", mixedSpec, "-duration", "10s", "-seed", "2") == base {
		t.Error("-seed 2 did not change the -spec run")
	}
	if strings.Contains(base, "game/") || !strings.Contains(runSim(t, "-spec", mixedSpec, "-duration", "5s", "-app", "game"), "game/digits-0") {
		t.Error("-app should add its sessions under -spec only when given")
	}
	obsPath := filepath.Join(t.TempDir(), "run.jsonl")
	out := runSim(t, "-spec", mixedSpec, "-duration", "5s", "-obs-out", obsPath)
	if !strings.Contains(out, "observation log written to "+obsPath) {
		t.Errorf("no observation log announcement in:\n%s", out)
	}
	if fi, err := os.Stat(obsPath); err != nil || fi.Size() == 0 {
		t.Errorf("-obs-out wrote no log: %v", err)
	}
}

// TestSpatialFixedRunsComplete runs the fixed-cluster spatial and hybrid
// deployments whose epochs release a unit's compute partition while one of
// its batches is still in CPU preprocessing; each must run to the end.
func TestSpatialFixedRunsComplete(t *testing.T) {
	for _, args := range [][]string{
		{"-app", "all", "-placement", "spatial", "-fixed"},
		{"-app", "all", "-placement", "hybrid", "-fixed", "-seed", "3"},
	} {
		if out := runSim(t, args...); !strings.Contains(out, "t= 60s") {
			t.Errorf("%v: run stopped before its last report line:\n%s", args, out)
		}
	}
}
