package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current output")

// mixedLog is the schema-v1 golden: the observation log of
//
//	nexus-sim -spec examples/specs/mixed.json -duration 3s -trace 200 -forensics -obs-out
//
// (cmd/nexus-sim's TestObsLogMatchesGolden keeps it current).
var mixedLog = filepath.Join("testdata", "mixed.jsonl")

func runObs(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(context.Background(), args, &out)
	return out.String(), err
}

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSubcommandsMatchGoldens: on the mixed log, each subcommand prints
// byte for byte what the reader it replaced printed on the same run's
// separate files (nexus-trace -trace -audit; nexus-forensics -dumps -trace;
// nexus-forensics -audit; nexus-top -plain -alerts -audit).
func TestSubcommandsMatchGoldens(t *testing.T) {
	for _, args := range [][]string{{"trace"}, {"blame"}, {"diff"}, {"top", "-plain"}} {
		got, err := runObs(t, append(args, mixedLog)...)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		golden := filepath.Join("testdata", args[0]+".golden")
		if *update {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("nexus-obs %v stdout differs from %s:\n%s", args, golden, got)
		}
	}
}

// syncBuffer is a strings.Builder safe to read while a follower writes.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestTopFollow tails a log that arrives in two pieces, the first ending
// mid-record: the follower renders what is complete, holds the torn line,
// after the rest arrives renders the golden final frame, and returns once
// cancelled.
func TestTopFollow(t *testing.T) {
	full, err := os.ReadFile(mixedLog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "top.golden"))
	if err != nil {
		t.Fatal(err)
	}
	cut := len(full) - 100 // inside the last record
	p := writeTemp(t, string(full[:cut]))
	var out syncBuffer
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, []string{"top", "-follow", "-plain", "-refresh", "5ms", p}, &out) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("follow ended with %v", err)
		}
	}()
	waitFor := func(what string, ok func(string) bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			if ok(out.String()) {
				return
			}
		}
		t.Fatalf("no %s after 5s; output:\n%s", what, out.String())
	}
	waitFor("first frame", func(s string) bool { return strings.Contains(s, "nexus-top") })
	f, err := os.OpenFile(p, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[cut:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	waitFor("golden final frame", func(s string) bool { return strings.HasSuffix(s, string(want)) })
}

func TestTraceChromeExport(t *testing.T) {
	chrome := filepath.Join(t.TempDir(), "chrome.json")
	out, err := runObs(t, "trace", "-chrome", chrome, mixedLog)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(out, "chrome trace written to "+chrome+" (load in chrome://tracing)\n") {
		t.Errorf("no chrome announcement at the end of:\n%s", out)
	}
	if fi, err := os.Stat(chrome); err != nil || fi.Size() == 0 {
		t.Errorf("-chrome wrote nothing: %v", err)
	}
}

func TestTraceEmptyLog(t *testing.T) {
	if _, err := runObs(t, "trace", writeTemp(t, "")); err == nil || !strings.Contains(err.Error(), "no spans") {
		t.Fatalf("empty log: err = %v, want a no-spans explanation", err)
	}
}

// TestTraceTruncatedLog: a log cut off inside its only record holds no
// complete record, which the trace subcommand reports.
func TestTraceTruncatedLog(t *testing.T) {
	p := writeTemp(t, `{"v":1,"kind":"span","at_ms":1,"data":{"at_ms":1,"kind":"arrive","req"`)
	if _, err := runObs(t, "trace", p); err == nil || !strings.Contains(err.Error(), "no spans") {
		t.Fatalf("truncated log: err = %v, want a no-spans explanation", err)
	}
}

func TestTraceNoSpans(t *testing.T) {
	p := writeTemp(t, `{"v":1,"kind":"alert","at_ms":1,"data":{"at_ms":1,"rule":"r","target":"x","state":"firing","value":1}}`+"\n")
	if _, err := runObs(t, "trace", p); err == nil || !strings.Contains(err.Error(), "no spans") {
		t.Fatalf("span-less log: err = %v, want a no-spans explanation", err)
	}
}

func TestTraceValidLog(t *testing.T) {
	p := writeTemp(t, `{"v":1,"kind":"span","at_ms":1,"data":{"at_ms":1,"kind":"arrive","req":1,"session":"s","batch":0,"dur_ms":0}}`+"\n")
	out, err := runObs(t, "trace", p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "trace: 1 events\nrequests: 1 arrived") {
		t.Fatalf("unexpected report:\n%s", out)
	}
}

// TestTraceHugeDurationTerminates is the regression for a two-record
// trace whose execute span claims 1e10 ms of GPU time: the reader used to
// spread it over 1e7 one-second slots and never finish. The log is now
// rejected as out of range, well inside a second.
func TestTraceHugeDurationTerminates(t *testing.T) {
	p := writeTemp(t, `{"v":1,"kind":"span","at_ms":1,"data":{"at_ms":1,"kind":"arrive","req":1,"session":"s","batch":0,"dur_ms":0}}
{"v":1,"kind":"span","at_ms":2,"data":{"at_ms":2,"kind":"execute","req":1,"backend":"be0","unit":"u","batch":1,"dur_ms":1e10}}
`)
	done := make(chan error, 1)
	go func() {
		_, err := runObs(t, "trace", p)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Fatalf("err = %v, want the out-of-range line 2 reported", err)
		}
	case <-time.After(time.Second):
		t.Fatal("nexus-obs trace still running after 1s")
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus", mixedLog}, {"trace"}, {"trace", "a", "b"}} {
		if _, err := runObs(t, args...); err == nil {
			t.Errorf("%v: want a usage error", args)
		}
	}
	if _, err := runObs(t, "diff", filepath.Join(t.TempDir(), "nope.jsonl")); err == nil {
		t.Error("missing file must be an error")
	}
}
