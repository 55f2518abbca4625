package main

import (
	"bytes"
	"errors"
	"flag"
	"io/fs"
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

// TestWorkloadFlagsRejectNonsense checks that a non-positive -duration and
// a negative -rate or -scale are errors naming the flag, while a zero rate
// or scale stays valid.
func TestWorkloadFlagsRejectNonsense(t *testing.T) {
	cases := []struct {
		args []string
		flag string // "" = valid
	}{
		{[]string{"-duration", "-1s"}, "-duration"},
		{[]string{"-duration", "0s"}, "-duration"},
		{[]string{"-rate", "-5"}, "-rate"},
		{[]string{"-scale", "-1"}, "-scale"},
		{[]string{"-app", "all", "-scale", "-0.5"}, "-scale"},
		{[]string{"-spec", mixedSpec, "-duration", "-2s"}, "-duration"},
		{[]string{"-rate", "0"}, ""},
		{[]string{"-app", "all", "-scale", "0"}, ""},
		{[]string{"-duration", "1ms"}, ""},
	}
	for _, c := range cases {
		_, _, err := parseArgs(c.args)
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%v: unexpected error %v", c.args, err)
		case c.flag != "" && err == nil:
			t.Errorf("%v: accepted, want an error naming %s", c.args, c.flag)
		case c.flag != "" && !strings.Contains(err.Error(), c.flag):
			t.Errorf("%v: error %q does not name %s", c.args, err, c.flag)
		}
	}
}

// TestSpecOutputMatchesGolden pins `nexus-sim -spec mixed.json` stdout.
func TestSpecOutputMatchesGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "mixed.golden"), []byte(runSim(t, "-spec", mixedSpec)))
}

// TestDefaultAllMatchesGolden pins `nexus-sim -app all` stdout.
func TestDefaultAllMatchesGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "all.golden"), []byte(runSim(t, "-app", "all")))
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

// TestObsOutBadPathFailsBeforeRun: an -obs-out path in a missing
// directory is an error before the deployment runs, so nothing is reported.
func TestObsOutBadPathFailsBeforeRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "run.jsonl")
	var out strings.Builder
	err := run([]string{"-spec", mixedSpec, "-obs-out", path}, &out)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want the missing directory reported", err)
	}
	if out.Len() != 0 {
		t.Errorf("the run went ahead and reported:\n%s", out.String())
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
