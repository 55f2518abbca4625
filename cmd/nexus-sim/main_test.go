package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const mixedSpec = "../../examples/specs/mixed.json"

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
	want, err := os.ReadFile(filepath.Join("testdata", "mixed.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := runSim(t, "-spec", mixedSpec); got != string(want) {
		t.Fatalf("stdout differs from testdata/mixed.golden:\n%s", got)
	}
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
	tracePath := filepath.Join(t.TempDir(), "t.json")
	out := runSim(t, "-spec", mixedSpec, "-duration", "5s", "-trace-out", tracePath)
	if !strings.Contains(out, "events written to "+tracePath) {
		t.Errorf("no trace announcement in:\n%s", out)
	}
	if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
		t.Errorf("-trace-out wrote no trace: %v", err)
	}
}
