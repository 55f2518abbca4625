package workload

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestRequestRecordPointerFree: a request is a 32-byte record with no
// pointers (ID, arrival, deadline and session handle), so the queue rings
// and batch slices that hold requests cost the garbage collector nothing
// to scan and a cold-start backlog costs 32 bytes a request.
func TestRequestRecordPointerFree(t *testing.T) {
	typ := reflect.TypeOf(Request{})
	for i := range typ.NumField() {
		if f := typ.Field(i); hasPointer(f.Type) {
			t.Errorf("Request.%s holds a pointer", f.Name)
		}
	}
	if size := unsafe.Sizeof(Request{}); size != 32 {
		t.Fatalf("Request is %d bytes, want 32", size)
	}
}

// hasPointer reports whether a value of typ holds a pointer the garbage
// collector would follow.
func hasPointer(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return typ.Len() > 0 && hasPointer(typ.Elem())
	case reflect.Struct:
		for i := range typ.NumField() {
			if hasPointer(typ.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}
