package obslog

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"nexus/internal/trace"
)

// FuzzRead: decoding never panics, every accepted input re-encodes and
// decodes back to the same Log, and every nexus-obs renderer survives the
// decoded Log. The seed corpus lives in testdata/fuzz/FuzzRead.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleLog()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, l); err != nil {
			t.Fatalf("accepted log does not encode: %v", err)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded log does not decode: %v\n%s", err, buf.Bytes())
		}
		if !same(reflect.ValueOf(l), reflect.ValueOf(back)) {
			t.Fatalf("round trip differs:\n got %+v\nwant %+v", back, l)
		}
		for _, render := range []func(io.Writer, Log) error{WriteTrace, WriteBlame, WriteDiff, WriteTop} {
			_ = render(io.Discard, l)
		}
	})
}

// same is reflect.DeepEqual, except that a nil and an empty slice or map
// are alike, since the encoder writes both the same way, and that spans
// compare by the events they decode to, not by how they are packed.
func same(a, b reflect.Value) bool {
	if a.Type() == reflect.TypeOf(trace.Spans{}) {
		ea, eb := a.Interface().(trace.Spans).Events(), b.Interface().(trace.Spans).Events()
		return same(reflect.ValueOf(ea), reflect.ValueOf(eb))
	}
	switch a.Kind() {
	case reflect.Slice, reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		if a.Kind() == reflect.Slice {
			for i := range a.Len() {
				if !same(a.Index(i), b.Index(i)) {
					return false
				}
			}
			return true
		}
		for _, k := range a.MapKeys() {
			if v := b.MapIndex(k); !v.IsValid() || !same(a.MapIndex(k), v) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return same(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			if !same(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}
