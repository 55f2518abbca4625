package trace

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"nexus/internal/session"
)

func ev(at int, kind Kind, req uint64) Event {
	return Event{At: time.Duration(at) * time.Millisecond, Kind: kind, ReqID: req, Session: "s"}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Record(ev(1, Arrive, 1)) // must not panic
	tr.SetFilter(func(uint64) bool { return true })
	if tr.Total() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer should report nothing")
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity 0 accepted")
		}
	}()
	New(0, nil)
}

func TestRecordAndOrder(t *testing.T) {
	tr := New(10, nil)
	tr.Record(ev(1, Arrive, 1))
	tr.Record(ev(2, Enqueue, 1))
	tr.Record(ev(3, Complete, 1))
	got := tr.Events()
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].Kind != Arrive || got[2].Kind != Complete {
		t.Fatalf("order wrong: %+v", got)
	}
	if tr.Total() != 3 {
		t.Fatalf("Total = %d", tr.Total())
	}
}

func TestRingOverwrite(t *testing.T) {
	tr := New(3, nil)
	for i := 0; i < 5; i++ {
		tr.Record(ev(i, Arrive, uint64(i)))
	}
	got := tr.Events()
	if len(got) != 3 {
		t.Fatalf("retained %d, want 3", len(got))
	}
	// Oldest retained is event 2.
	if got[0].ReqID != 2 || got[2].ReqID != 4 {
		t.Fatalf("ring order wrong: %+v", got)
	}
	if tr.Total() != 5 {
		t.Fatalf("Total = %d, want 5", tr.Total())
	}
}

func TestFilter(t *testing.T) {
	tr := New(10, nil)
	tr.SetFilter(func(req uint64) bool { return req == 2 })
	tr.Record(ev(1, Arrive, 1))
	tr.Record(ev(2, Drop, 2))
	if len(tr.Events()) != 1 || tr.Events()[0].Kind != Drop {
		t.Fatalf("filter failed: %+v", tr.Events())
	}
}

// Filtered events must be discarded before touching the ring: they advance
// neither the write cursor nor the total, so rejected events can never
// evict retained ones or inflate the overwrite accounting.
func TestFilterDoesNotAdvanceRing(t *testing.T) {
	tr := New(3, nil)
	tr.SetFilter(func(req uint64) bool { return req < 100 })
	tr.Record(ev(0, Arrive, 0))
	tr.Record(ev(1, Arrive, 1))
	// A burst of filtered events between accepted ones.
	for i := 0; i < 10; i++ {
		tr.Record(ev(100+i, Drop, uint64(100+i)))
	}
	tr.Record(ev(2, Arrive, 2))
	if tr.Total() != 3 {
		t.Fatalf("Total = %d, want 3 (filtered events advanced total)", tr.Total())
	}
	got := tr.Events()
	if len(got) != 3 {
		t.Fatalf("retained %d, want 3", len(got))
	}
	for i, e := range got {
		if e.ReqID != uint64(i) {
			t.Fatalf("filtered events perturbed the ring: %+v", got)
		}
	}

	// Now wrap the ring past capacity with interleaved rejects: accepted
	// events alone determine eviction order.
	for i := 3; i < 7; i++ {
		tr.Record(ev(200, Arrive, 999)) // rejected
		tr.Record(ev(i, Arrive, uint64(i)))
	}
	got = tr.Events()
	if tr.Total() != 7 || len(got) != 3 {
		t.Fatalf("after wrap: total=%d retained=%d", tr.Total(), len(got))
	}
	if got[0].ReqID != 4 || got[1].ReqID != 5 || got[2].ReqID != 6 {
		t.Fatalf("wraparound order wrong with filter active: %+v", got)
	}
}

// byRequest groups events per request ID, each group in order.
func byRequest(events []Event) map[uint64][]Event {
	out := make(map[uint64][]Event)
	for _, e := range events {
		out[e.ReqID] = append(out[e.ReqID], e)
	}
	return out
}

// requestLatency is the arrival-to-completion latency of every completed
// request in events.
func requestLatency(events []Event) map[uint64]time.Duration {
	out := make(map[uint64]time.Duration)
	arrivals := make(map[uint64]time.Duration)
	for _, e := range events {
		switch e.Kind {
		case Arrive:
			arrivals[e.ReqID] = e.At
		case Complete:
			if at, ok := arrivals[e.ReqID]; ok {
				out[e.ReqID] = e.At - at
			}
		}
	}
	return out
}

func TestByRequestAndLatency(t *testing.T) {
	tr := New(16, nil)
	tr.Record(ev(10, Arrive, 7))
	tr.Record(ev(11, Enqueue, 7))
	tr.Record(ev(12, Arrive, 8))
	tr.Record(ev(25, Complete, 7))
	byReq := byRequest(tr.Events())
	if len(byReq[7]) != 3 || len(byReq[8]) != 1 {
		t.Fatalf("byRequest = %v", byReq)
	}
	lat := requestLatency(tr.Events())
	if lat[7] != 15*time.Millisecond {
		t.Fatalf("latency = %v", lat[7])
	}
	if _, ok := lat[8]; ok {
		t.Fatal("incomplete request should have no latency")
	}
}

// Events must keep chronological order within each request even when the
// ring has wrapped and the oldest retained events sit mid-buffer.
func TestByRequestOrderingUnderWraparound(t *testing.T) {
	tr := New(6, nil)
	// Request 1's lifecycle interleaved with filler; capacity 6 retains
	// only the last 6 of 9 events.
	tr.Record(ev(0, Arrive, 1))
	tr.Record(ev(1, Arrive, 50))
	tr.Record(ev(2, Arrive, 51))
	tr.Record(ev(3, Route, 1))
	tr.Record(ev(4, Enqueue, 1))
	tr.Record(ev(5, Arrive, 52))
	tr.Record(ev(6, Execute, 1))
	tr.Record(ev(7, Arrive, 53))
	tr.Record(ev(8, Complete, 1))
	got := byRequest(tr.Events())[1]
	wantKinds := []Kind{Route, Enqueue, Execute, Complete} // Arrive evicted
	if len(got) != len(wantKinds) {
		t.Fatalf("req 1 events = %+v", got)
	}
	for i, k := range wantKinds {
		if got[i].Kind != k {
			t.Fatalf("req 1 out of order at %d: got %s want %s (%+v)", i, got[i].Kind, k, got)
		}
		if i > 0 && got[i].At <= got[i-1].At {
			t.Fatalf("req 1 timestamps not increasing: %+v", got)
		}
	}
}

// The wire schema must emit milliseconds with explicit units, and batch
// must not carry omitempty: a batch-size-0 early-drop record has to stay
// distinguishable from an unset field.
func TestJSONSchemaMillisecondsAndBatch(t *testing.T) {
	e := Event{At: 1500 * time.Microsecond, Kind: Drop, ReqID: 9, Session: "s",
		Batch: 0, Cause: "deadline"}
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if at, ok := doc["at_ms"].(float64); !ok || at != 1.5 {
		t.Fatalf("at_ms = %v, want 1.5 (%s)", doc["at_ms"], raw)
	}
	if _, ok := doc["at"]; ok {
		t.Fatalf("raw nanosecond field still present: %s", raw)
	}
	if _, ok := doc["batch"]; !ok {
		t.Fatalf("batch omitted at zero: %s", raw)
	}
}

func TestFromMSRoundTripExact(t *testing.T) {
	for _, d := range []time.Duration{0, 1, 999, time.Microsecond,
		1500*time.Microsecond + 7, time.Second, 3*time.Hour + 11} {
		if got := FromMS(MS(d)); got != d {
			t.Fatalf("FromMS(MS(%v)) = %v", d, got)
		}
	}
}

// TestEventUnmarshalRejectsOutOfRange pins the decode-side guard: times
// and durations that are negative or past MaxMS (where FromMS stops
// round-tripping and, further out, overflows time.Duration) are errors.
func TestEventUnmarshalRejectsOutOfRange(t *testing.T) {
	for _, doc := range []string{
		`{"at_ms":-1,"kind":"arrive","req":1,"batch":0,"dur_ms":0}`,
		`{"at_ms":1,"kind":"execute","req":1,"batch":1,"dur_ms":1e10}`,
		`{"at_ms":1e13,"kind":"arrive","req":1,"batch":0,"dur_ms":0}`,
	} {
		var e Event
		if err := json.Unmarshal([]byte(doc), &e); err == nil {
			t.Errorf("%s decoded to %+v, want an error", doc, e)
		}
	}
	var e Event
	if err := json.Unmarshal([]byte(`{"at_ms":1.5,"kind":"execute","req":3,"batch":2,"dur_ms":1e9}`), &e); err != nil {
		t.Fatal(err)
	}
	if e.At != 1500*time.Microsecond || e.Dur != time.Duration(MaxMS)*time.Millisecond || e.Batch != 2 {
		t.Fatalf("decoded %+v", e)
	}
}

func TestSummaryAndSessions(t *testing.T) {
	tr := New(8, nil)
	tr.Record(Event{Kind: Arrive, Session: "b"})
	tr.Record(Event{Kind: Arrive, Session: "a"})
	tr.Record(Event{Kind: Drop, Session: "a"})
	sum := make(map[Kind]int)
	set := make(map[string]bool)
	for _, e := range tr.Events() {
		sum[e.Kind]++
		set[e.Session] = true
	}
	if sum[Arrive] != 2 || sum[Drop] != 1 {
		t.Fatalf("summary = %v", sum)
	}
	var got []string
	for s := range set {
		got = append(got, s)
	}
	sort.Strings(got)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("sessions = %v", got)
	}
}

// TestBetween walks a wrapped ring: only the retained events inside the
// closed interval come back, oldest first. A ring not yet full yields only
// the events recorded, never its empty slots.
func TestBetween(t *testing.T) {
	tr := New(4, nil)
	for i := 0; i < 7; i++ { // retains requests 3..6
		tr.Record(ev(10*i, Arrive, uint64(i)))
	}
	got := tr.Between(20*time.Millisecond, 50*time.Millisecond).Events()
	if len(got) != 3 || got[0].ReqID != 3 || got[1].ReqID != 4 || got[2].ReqID != 5 {
		t.Fatalf("Between(20ms, 50ms) = %+v, want requests 3, 4, 5", got)
	}
	if got := tr.Between(time.Second, 2*time.Second); got.Len() != 0 {
		t.Fatalf("Between outside the ring = %+v, want none", got.Events())
	}
	var nilTracer *Tracer
	if nilTracer.Between(0, time.Second).Len() != 0 {
		t.Fatal("nil tracer returned events")
	}
	part := New(8, nil)
	part.Record(ev(10, Arrive, 1))
	part.Record(ev(20, Complete, 1))
	if got := part.Between(0, time.Second).Events(); len(got) != 2 || got[1].Kind != Complete {
		t.Fatalf("Between on a partly filled ring = %+v, want its two events", got)
	}
}

// Property: after any sequence of records, Events() returns at most
// capacity events, in non-decreasing record order (by sequence of
// insertion), and Total counts every record.
func TestPropertyRing(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capn := rng.Intn(16) + 1
		n := rng.Intn(100)
		tr := New(capn, nil)
		for i := 0; i < n; i++ {
			tr.Record(ev(i, Arrive, uint64(i)))
		}
		got := tr.Events()
		if tr.Total() != uint64(n) {
			return false
		}
		want := n
		if want > capn {
			want = capn
		}
		if len(got) != want {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].ReqID != got[i-1].ReqID+1 {
				return false
			}
		}
		// The newest event must be the last recorded.
		if n > 0 && got[len(got)-1].ReqID != uint64(n-1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a filter active, the ring behaves exactly as if rejected
// events were never offered — same retained set, same total.
func TestPropertyFilterTransparent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capn := rng.Intn(8) + 1
		n := rng.Intn(80)
		filtered := New(capn, nil)
		filtered.SetFilter(func(req uint64) bool { return req < 1<<40 })
		plain := New(capn, nil)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				e := ev(i, Arrive, uint64(i))
				filtered.Record(e)
				plain.Record(e)
			} else {
				filtered.Record(ev(i, Drop, 1<<40+uint64(i))) // rejected
			}
		}
		if filtered.Total() != plain.Total() {
			return false
		}
		a, b := filtered.Events(), plain.Events()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// flatRing is the reference the chunked ring must match: one slice
// allocated at full capacity, written in place.
type flatRing struct {
	events []Event
	next   int
	filled bool
	total  uint64
	filter func(req uint64) bool
}

func (r *flatRing) record(e Event) {
	if r.filter != nil && !r.filter(e.ReqID) {
		return
	}
	r.events[r.next] = e
	r.next++
	r.total++
	if r.next == len(r.events) {
		r.next = 0
		r.filled = true
	}
}

func (r *flatRing) retained() []Event {
	if !r.filled {
		return r.events[:r.next:r.next]
	}
	return append(append(make([]Event, 0, len(r.events)), r.events[r.next:]...), r.events[:r.next]...)
}

// TestTracerRingMatchesFlat records into the packed, chunked ring and a
// flat reference of Events side by side, with and without a filter, at
// capacities around one chunk and across several, and compares Events,
// Between and Total just before, at and just past each wrap and each chunk
// boundary. Every other event goes in through handles (Put), the rest as
// Events (Record).
func TestTracerRingMatchesFlat(t *testing.T) {
	for _, capn := range []int{1, chunkEvents - 1, chunkEvents, chunkEvents + 1, 3*chunkEvents - 1} {
		for _, filtered := range []bool{false, true} {
			tr := New(capn, nil)
			ref := &flatRing{events: make([]Event, capn)}
			if filtered {
				keep := func(req uint64) bool { return req%3 != 0 }
				tr.SetFilter(keep)
				ref.filter = keep
			}
			checks := map[uint64]bool{}
			for _, at := range []int{0, capn, 2 * capn, chunkEvents, 2 * chunkEvents, capn + chunkEvents} {
				for _, d := range []int{-1, 0, 1} {
					if at+d > 0 {
						checks[uint64(at+d)] = true
					}
				}
			}
			last := uint64(2*capn + 1)
			s := tr.sessions.Intern("s")
			for i := 0; ref.total < last; i++ {
				e := ev(i, Arrive, uint64(i))
				if i%2 == 0 {
					tr.Record(e)
				} else {
					tr.Put(Span{At: e.At, Kind: ArriveName, Req: e.ReqID, Session: s})
				}
				ref.record(e)
				if tr.Total() != ref.total {
					t.Fatalf("cap %d filtered=%v: Total = %d, reference %d", capn, filtered, tr.Total(), ref.total)
				}
				if !checks[ref.total] {
					continue
				}
				delete(checks, ref.total) // a filtered event leaves the total where it was
				want := ref.retained()
				if got := tr.Events(); !slices.Equal(got, want) {
					t.Fatalf("cap %d filtered=%v after %d: Events differ (%d vs %d retained)", capn, filtered, ref.total, len(got), len(want))
				}
				// A window over the middle of what is retained, and one over
				// all of it. Times rise with the record order, so a window
				// is a run of want.
				a, b := len(want)/3, 2*len(want)/3
				for _, w := range [][2]int{{a, b}, {0, len(want) - 1}} {
					from, to := want[w[0]].At, want[w[1]].At
					if got := tr.Between(from, to).Events(); !slices.Equal(got, want[w[0]:w[1]+1]) {
						t.Fatalf("cap %d filtered=%v after %d: Between(%v, %v) differs", capn, filtered, ref.total, from, to)
					}
				}
			}
		}
	}
}

// allocBytes returns the bytes f allocates. The collector is off while f
// runs: a cycle that overlapped f would add its own allocations to the
// count (the first cycle of a process starts the mark workers, ~1.2 KB, and
// under -race later cycles allocate a few KB in the background). Turning
// it off also waits for a cycle already running to finish.
func allocBytes(f func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestTracerAllocatesOnDemand: a ring's memory follows what it has
// recorded. Creating a large ring costs almost nothing, n events cost at
// most ⌈n/chunkEvents⌉ chunks, and once the ring has wrapped, recording
// allocates nothing.
func TestTracerAllocatesOnDemand(t *testing.T) {
	var tr *Tracer
	if b := allocBytes(func() { tr = New(1<<18, nil) }); b >= 1<<10 {
		t.Fatalf("New(1<<18, nil) allocated %d B, want under 1 KiB", b)
	}
	// The chunk table's own growth is the slack.
	chunkBytes := uint64(chunkEvents) * uint64(unsafe.Sizeof(Span{}))
	var total uint64
	recorded := 0
	for _, n := range []int{1, chunkEvents, chunkEvents + 1, 3*chunkEvents + 5} {
		total += allocBytes(func() {
			for ; recorded < n; recorded++ {
				tr.Record(ev(recorded, Arrive, uint64(recorded)))
			}
		})
		chunks := uint64((n + chunkEvents - 1) / chunkEvents)
		if total > chunks*chunkBytes+1<<10 {
			t.Fatalf("%d events allocated %d B, want at most %d chunks (%d B)", n, total, chunks, chunks*chunkBytes)
		}
	}

	small := New(chunkEvents+1, nil)
	for i := 0; i <= chunkEvents+1; i++ {
		small.Record(ev(i, Arrive, uint64(i)))
	}
	e := ev(1, Complete, 1)
	if n := testing.AllocsPerRun(100, func() { small.Record(e) }); n != 0 {
		t.Fatalf("Record after the wrap: %v allocs, want 0", n)
	}
	s := Span{At: e.At, Kind: CompleteName, Req: e.ReqID, Session: small.sessions.Intern(e.Session)}
	if n := testing.AllocsPerRun(100, func() { small.Put(s) }); n != 0 {
		t.Fatalf("Put after the wrap: %v allocs, want 0", n)
	}
}

// TestRingRecordPointerFree: the ring's record holds no pointers, so the
// garbage collector never scans a ring, and it is 56 bytes; a full
// chunkEvents ring costs at most that per slot, plus the chunk table and
// the tracer's fixed set-up.
func TestRingRecordPointerFree(t *testing.T) {
	typ := reflect.TypeOf(Span{})
	for i := range typ.NumField() {
		if f := typ.Field(i); hasPointer(f.Type) {
			t.Errorf("Span.%s holds a pointer", f.Name)
		}
	}
	if size := unsafe.Sizeof(Span{}); size != 56 {
		t.Fatalf("Span is %d bytes, want 56", size)
	}
	var tr *Tracer
	b := allocBytes(func() {
		tr = New(chunkEvents, nil)
		for i := range chunkEvents {
			tr.Put(Span{At: time.Duration(i), Kind: ArriveName, Req: uint64(i)})
		}
	})
	// The slack is the tracer itself and its name table's seed.
	table := uint64(unsafe.Sizeof(tr.chunks[0])) * uint64(cap(tr.chunks))
	if want := 56*uint64(chunkEvents) + table + 1<<10; b > want {
		t.Fatalf("a full %d-slot ring allocated %d B, want at most %d", chunkEvents, b, want)
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
	}
	return true
}

// TestRecordInternsNothing: once a deployment's names are interned, its
// request lifecycles record through handles without allocating and without
// growing the name or session table.
func TestRecordInternsNothing(t *testing.T) {
	tr := New(1<<12, nil)
	tr.SetFilter(func(req uint64) bool { return req%7 != 0 })
	sessions := []session.Handle{tr.sessions.Intern("game-0"), tr.sessions.Intern("traffic/det")}
	be, unit := tr.Name("be0"), tr.Name("game-0/u0")
	deadline := tr.Name("deadline")
	lifecycle := func(req uint64) {
		s := Span{At: time.Duration(req), Req: req, Session: sessions[req%2]}
		s.Kind = ArriveName
		tr.Put(s)
		s.Kind, s.Backend, s.Unit = RouteName, be, unit
		tr.Put(s)
		s.Kind = EnqueueName
		tr.Put(s)
		s.Kind, s.Batch, s.Inc = ExecuteName, 8, 1
		tr.Put(s)
		s.Kind, s.Batch, s.Inc, s.Cause = DropName, 0, 0, deadline
		tr.Put(s)
	}
	for req := range uint64(1 << 12) { // wrap the ring first
		lifecycle(req)
	}
	names, ids := tr.names.Len(), tr.sessions.Len()
	if n := testing.AllocsPerRun(1, func() {
		for req := range uint64(20000) { // 10^5 records
			lifecycle(req)
		}
	}); n != 0 {
		t.Fatalf("10^5 records allocated %v times, want 0", n)
	}
	if tr.names.Len() != names {
		t.Fatalf("recording grew the name table from %d to %d", names, tr.names.Len())
	}
	if tr.sessions.Len() != ids {
		t.Fatalf("recording grew the session table from %d to %d", ids, tr.sessions.Len())
	}
	last := tr.Events()[len(tr.Events())-1]
	if last != (Event{At: 19998, Kind: Drop, ReqID: 19998, Session: "game-0", Backend: "be0",
		Unit: "game-0/u0", Cause: "deadline"}) {
		t.Fatalf("last record unpacked to %+v", last)
	}
}

// TestSessionNamesFromTable: a tracer names sessions through the session
// table it is given, the one its deployment's requests carry handles of. A
// span resolves its session when read, so a session registered after the
// tracer was built still resolves; Record interns into that table, never
// into the tracer's name table; a window copied by Between keeps resolving
// after the table grows.
func TestSessionNamesFromTable(t *testing.T) {
	names := session.NewTable()
	tr := New(8, names)
	s := names.Intern("s")
	tr.Put(Span{Kind: RouteName, Req: 1, Session: s})
	tr.Record(Event{Kind: Route, ReqID: 2, Session: "late"})
	late, ok := names.Lookup("late")
	if !ok {
		t.Fatal("Record did not intern its session in the shared table")
	}
	if _, ok := tr.names.Lookup("late"); ok {
		t.Fatal("a session name went into the tracer's name table")
	}
	window := tr.Between(0, 0)
	names.Intern("after")
	tr.Put(Span{Kind: RouteName, Req: 3, Session: late})
	got := tr.Events()
	if got[0].Session != "s" || got[1].Session != "late" || got[2].Session != "late" {
		t.Fatalf("sessions %q, %q, %q; want s, late, late", got[0].Session, got[1].Session, got[2].Session)
	}
	if w := window.Events(); len(w) != 2 || w[0].Session != "s" || w[1].Session != "late" {
		t.Fatalf("window events %+v", w)
	}
	var nilTracer *Tracer
	if nilTracer.Name("s") != 0 {
		t.Fatal("a nil tracer interned a name")
	}
}
