package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the goldens from the current output")

// TestOutputMatchesGoldens pins the stdout of the default summary, one
// model's l(b) table, and a different device and SLO column.
func TestOutputMatchesGoldens(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"default.golden", nil},
		{"resnet50.golden", []string{"-model", "resnet50"}},
		{"v100_slo50ms.golden", []string{"-gpu", "v100", "-slo", "50ms"}},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if err := run(c.args, &out); err != nil {
			t.Fatalf("run %v: %v", c.args, err)
		}
		path := filepath.Join("testdata", c.golden)
		if *update {
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%v: output differs from %s:\n%s", c.args, path, out.Bytes())
		}
	}
}

// TestUnknownNamesFail checks that an unknown GPU type or model is an
// error, not an empty table.
func TestUnknownNamesFail(t *testing.T) {
	for _, args := range [][]string{{"-gpu", "bogus"}, {"-model", "bogus"}} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("%v: no error, output:\n%s", args, out.String())
		}
	}
}
