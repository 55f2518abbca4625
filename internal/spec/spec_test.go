package spec

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

const goodSpec = `{
  "system": "nexus",
  "gpus": 8,
  "epoch_sec": 10,
  "seed": 3,
  "fixed": true,
  "specialize": [{"base": "resnet50", "count": 2, "retrain": 1, "start": 500}],
  "sessions": [
    {"id": "a", "model": "resnet50-v500", "slo_ms": 100, "rate": 200},
    {"id": "b", "model": "resnet50-v501", "slo_ms": 100, "rate": 100, "arrival": "poisson"}
  ],
  "queries": [
    {"name": "q", "slo_ms": 400, "rate": 20, "root": {
      "name": "det", "model": "ssd",
      "children": [{"gamma": 1.5, "node": {"name": "rec", "model": "googlenet_car"}}]
    }}
  ]
}`

func TestParseGood(t *testing.T) {
	d, err := Parse(strings.NewReader(goodSpec))
	if err != nil {
		t.Fatal(err)
	}
	if d.GPUs != 8 || len(d.Sessions) != 2 || len(d.Queries) != 1 {
		t.Fatalf("parsed = %+v", d)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"gpus": 1, "bogus": 2, "sessions": [{"id":"a","model":"m","slo_ms":1,"rate":1}]}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"no gpus", `{"sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1}]}`},
		{"bad system", `{"gpus":1,"system":"zz","sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1}]}`},
		{"empty workload", `{"gpus":1}`},
		{"session no id", `{"gpus":1,"sessions":[{"model":"m","slo_ms":1,"rate":1}]}`},
		{"duplicate id", `{"gpus":1,"sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1},{"id":"a","model":"m","slo_ms":1,"rate":1}]}`},
		{"zero slo", `{"gpus":1,"sessions":[{"id":"a","model":"m","slo_ms":0,"rate":1}]}`},
		{"bad arrival", `{"gpus":1,"sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1,"arrival":"burst"}]}`},
		{"query no name", `{"gpus":1,"queries":[{"slo_ms":1,"rate":1,"root":{"name":"x","model":"m"}}]}`},
		{"node no model", `{"gpus":1,"queries":[{"name":"q","slo_ms":1,"rate":1,"root":{"name":"x"}}]}`},
		{"zero gamma", `{"gpus":1,"queries":[{"name":"q","slo_ms":1,"rate":1,"root":{"name":"x","model":"m","children":[{"gamma":0,"node":{"name":"y","model":"m"}}]}}]}`},
		{"specialize no base", `{"gpus":1,"specialize":[{"count":1}],"sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1}]}`},
		{"trailing data", `{"gpus":1,"sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1}]} {"gpus":"x"}`},
		{"duplicate query", `{"gpus":1,"queries":[{"name":"q","slo_ms":1,"rate":1,"root":{"name":"x","model":"m"}},{"name":"q","slo_ms":1,"rate":1,"root":{"name":"y","model":"m"}}]}`},
		{"unknown gpu", `{"gpus":1,"gpu":"h100","sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1}]}`},
		{"unknown placement", `{"gpus":1,"placement":"diagonal","sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1}]}`},
		{"duration out of range", `{"gpus":1,"epoch_sec":1e300,"sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1}]}`},
		// Removed wall-clock knobs: a document still setting them fails.
		{"removed telemetry_wall", `{"gpus":1,"telemetry_sec":0.5,"telemetry_wall":true,"sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1}]}`},
		{"removed telemetry_self", `{"gpus":1,"telemetry_sec":0.5,"telemetry_self":true,"sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1}]}`},
		// Admission buckets that would shed every request of their session.
		{"negative admission rate", `{"gpus":1,"admission":{"a":{"rate":-5,"burst":10}},"sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1}]}`},
		{"sub-1 admission burst", `{"gpus":1,"admission":{"a":{"rate":5,"burst":0.5}},"sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1}]}`},
		// Removed degraded-mode knobs: a document still setting them fails.
		{"removed recovery_cap", `{"gpus":1,"recovery_cap":4,"sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1}]}`},
		{"removed admission_reserve_rate", `{"gpus":1,"admission":{"a":{"rate":5,"burst":10}},"admission_reserve_rate":200,"sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1}]}`},
		{"removed admission_reserve_burst", `{"gpus":1,"admission":{"a":{"rate":5,"burst":10}},"admission_reserve_burst":200,"sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1}]}`},
		{"removed forensics_cooldown_sec", `{"gpus":1,"forensics":true,"forensics_cooldown_sec":2,"sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1}]}`},
		{"removed admission priority", `{"gpus":1,"admission":{"a":{"rate":5,"burst":10,"priority":1}},"sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1}]}`},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestValidateRejectsNegativeKnobs checks that a negative numeric knob is
// an error naming its key, except for the seed and the three keys whose
// usage gives a negative value a meaning.
func TestValidateRejectsNegativeKnobs(t *testing.T) {
	cases := []struct {
		key, value string
		ok         bool
	}{
		{"trace", "-5", false},
		{"shards", "-3", false},
		{"frontends", "-2", false},
		{"retry_budget", "-2", false},
		{"breaker", "-1", false},
		{"lease_misses", "-1", false},
		{"slice_granularity", "-2", false},
		{"forensics_max_dumps", "-1", false},
		{"plan_hysteresis", "-1", false},
		{"epoch_sec", "-1", false},
		{"heartbeat_sec", "-0.1", false},
		{"retry_backoff_sec", "-0.001", false},
		{"seed", "-7", true},
		{"net_delay_sec", "-1", true},
		{"warmup_sec", "-1", true},
		{"planning_slack_sec", "-1", true},
		{"trace", "0", true},
		{"plan_hysteresis", "0", true},
	}
	for _, c := range cases {
		doc := `{"gpus":1,"` + c.key + `":` + c.value + `,"sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1}]}`
		_, err := Parse(strings.NewReader(doc))
		switch {
		case c.ok && err != nil:
			t.Errorf("%s=%s: %v", c.key, c.value, err)
		case !c.ok && err == nil:
			t.Errorf("%s=%s: accepted", c.key, c.value)
		case !c.ok && !strings.Contains(err.Error(), c.key):
			t.Errorf("%s=%s: error %q does not name the key", c.key, c.value, err)
		}
	}
}

func TestBuildAndRun(t *testing.T) {
	d, err := Parse(strings.NewReader(goodSpec))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	bad, err := dep.Run(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if bad > 0.02 {
		t.Fatalf("bad rate %.4f", bad)
	}
	// Both specialized sessions and the query stages served traffic.
	for _, sid := range []string{"a", "b", "q/det", "q/rec"} {
		if dep.Recorder.Session(sid).Sent == 0 {
			t.Fatalf("session %s saw no traffic", sid)
		}
	}
}

// TestBuildSubMillisecondSLOs: a spec whose sessions' SLOs share a whole
// millisecond (80 and 80.5 ms) plans two prefix groups, one per SLO, and
// every session is routed and served.
func TestBuildSubMillisecondSLOs(t *testing.T) {
	doc := `{"gpus":8,"fixed":true,
	  "specialize":[{"base":"resnet50","count":4,"retrain":1}],
	  "sessions":[
	    {"id":"a","model":"resnet50-v0","slo_ms":80,"rate":100},
	    {"id":"b","model":"resnet50-v1","slo_ms":80,"rate":100},
	    {"id":"c","model":"resnet50-v2","slo_ms":80.5,"rate":100},
	    {"id":"d","model":"resnet50-v3","slo_ms":80.5,"rate":100}]}`
	d, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	groups := map[string]bool{}
	for _, g := range dep.Sched.Plan().GPUs {
		for _, a := range g.Allocs {
			groups[a.SessionID] = true
		}
	}
	for id := range groups {
		if !strings.HasPrefix(id, "pg/resnet50/") {
			t.Errorf("plan allocates %s, not a resnet50 prefix group", id)
		}
	}
	if len(groups) != 2 {
		t.Fatalf("plan allocates %v, want two prefix groups", groups)
	}
	for _, sid := range []string{"a", "b", "c", "d"} {
		s := dep.Recorder.Session(sid)
		if s.Completed == 0 || s.Unroutable > 0 {
			t.Errorf("session %s: %d completed, %d unroutable", sid, s.Completed, s.Unroutable)
		}
	}
}

func TestBuildUnknownModel(t *testing.T) {
	doc := `{"gpus":1,"sessions":[{"id":"a","model":"ghost","slo_ms":100,"rate":1}]}`
	d, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Build(); err == nil {
		t.Fatal("unknown model accepted at build")
	}
}

func TestBuildRejectsConflictingSpecialize(t *testing.T) {
	doc := `{"gpus":1,
	  "specialize":[{"base":"resnet50","count":2,"retrain":1},{"base":"resnet50","count":2,"retrain":3}],
	  "sessions":[{"id":"a","model":"resnet50-v1","slo_ms":100,"rate":1}]}`
	d, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Build()
	if err == nil || !strings.Contains(err.Error(), `"resnet50-v0" already registered with retrain 1, not 3`) {
		t.Fatalf("Build = %v, want an error for resnet50-v0 with retrain 1, not 3", err)
	}
}

func TestBuildDefaults(t *testing.T) {
	doc := `{"gpus":2,"sessions":[{"id":"a","model":"googlenet_car","slo_ms":100,"rate":50}]}`
	d, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if dep.Recorder.Session("a").Sent == 0 {
		t.Fatal("no traffic with default system/GPU/arrival")
	}
}

func TestFeaturesOverride(t *testing.T) {
	doc := `{"gpus":2,
		"features":{"prefix_batch":false,"squishy":true,"early_drop":true,"overlap":true,"query_analysis":false},
		"sessions":[{"id":"a","model":"googlenet_car","slo_ms":100,"rate":50}]}`
	d, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if d.Features == nil || d.Features.PrefixBatch || !d.Features.Squishy {
		t.Fatalf("features = %+v", d.Features)
	}
	if _, err := d.Build(); err != nil {
		t.Fatal(err)
	}
}

// FuzzParse checks that Parse never panics and that every document it
// accepts marshals back to JSON that parses to the same value. Seeds are
// the example spec plus the committed corpus under testdata/fuzz.
func FuzzParse(f *testing.F) {
	example, err := os.ReadFile(filepath.Join("..", "..", "examples", "specs", "mixed.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		out, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("marshal accepted document: %v", err)
		}
		again, err := Parse(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-parse of %s: %v", out, err)
		}
		if !reflect.DeepEqual(d, again) {
			t.Fatalf("round trip changed the document:\n%+v\n%+v", d, again)
		}
	})
}
