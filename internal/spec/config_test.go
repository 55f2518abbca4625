package spec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nexus/internal/cluster"
	"nexus/internal/frontend"
)

// notKnobs lists the cluster.Config fields no spec key sets.
var notKnobs = map[string]bool{
	"OnEpoch":         true, // an in-process observer hook, not a value
	"Telemetry.Rules": true, // the alert rule set is code; nil selects the default rules
	"DeltaRouting":    true, // deprecated and ignored: every epoch pushes deltas
}

// TestConfigCoversCluster sets each spec key on its own to a non-default
// value, parses the document, and maps it: every cluster.Config field the
// key changes must come out holding the value that went in, and every
// cluster.Config field, nested telemetry and forensics fields included,
// must be changed by some key or be listed in notKnobs.
func TestConfigCoversCluster(t *testing.T) {
	// Telemetry and the flight recorder are on in the base document, so the
	// knobs that need them act.
	const base = `{"gpus":1,"telemetry_sec":0.5,"forensics":true,"sessions":[{"id":"a","model":"m","slo_ms":1,"rate":1}]`
	strs := map[string]string{"system": "clipper", "gpu": "k80", "placement": "hybrid"}
	before := fields(t, base+"}")
	covered := make(map[string]string)
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		key := typ.Field(i).Tag.Get("json")
		var in, want string // the key's JSON value, and what a field it sets must print
		switch typ.Field(i).Type {
		case reflect.TypeOf(Seconds(0)):
			in, want = "1.5", "1.5s"
		case reflect.TypeOf(""):
			if strs[key] == "" {
				t.Fatalf("no sample value for string key %q", key)
			}
			in, want = fmt.Sprintf("%q", strs[key]), strs[key]
		case reflect.TypeOf(0), reflect.TypeOf(int64(0)):
			in, want = "7", "7"
		case reflect.TypeOf(0.0):
			in, want = "0.25", "0.25"
		case reflect.TypeOf(false):
			in, want = "true", "true"
		case reflect.TypeOf(&cluster.Features{}):
			in, want = `{"prefix_batch":false,"squishy":false,"early_drop":false,"overlap":false,"query_analysis":false}`, "false"
		case reflect.TypeOf(map[string]frontend.AdmissionConfig{}):
			in = `{"a":{"rate":1,"burst":2,"priority":3}}`
			want = fmt.Sprint(map[string]frontend.AdmissionConfig{"a": {Rate: 1, Burst: 2, Priority: 3}})
		default:
			t.Fatalf("key %q: no sample for type %v", key, typ.Field(i).Type)
		}
		after := fields(t, base+`,"`+key+`":`+in+"}")
		for name, v := range after {
			if reflect.DeepEqual(v, before[name]) || notKnobs[name] {
				continue
			}
			if got := fmt.Sprint(v); got != want {
				t.Errorf("key %q: cluster field %s = %s, want %v", key, name, got, want)
			}
			covered[name] = key
		}
	}
	for name := range before {
		if covered[name] == "" && !notKnobs[name] {
			t.Errorf("cluster.Config field %s is set by no spec key", name)
		}
	}
}

// fields parses doc, maps it onto a cluster.Config, and flattens that into
// its leaf fields, descending into nested structs and struct pointers.
func fields(t *testing.T, doc string) map[string]any {
	t.Helper()
	d, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatalf("%s: %v", doc, err)
	}
	out := make(map[string]any)
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		if v.Kind() == reflect.Pointer && v.Type().Elem().Kind() == reflect.Struct {
			if v.IsNil() {
				v = reflect.New(v.Type().Elem())
			}
			v = v.Elem()
		}
		if v.Kind() != reflect.Struct {
			out[strings.TrimSuffix(prefix, ".")] = v.Interface()
			return
		}
		for i := 0; i < v.NumField(); i++ {
			walk(prefix+v.Type().Field(i).Name+".", v.Field(i))
		}
	}
	cfg := d.Cluster()
	walk("", reflect.ValueOf(&cfg).Elem())
	return out
}
