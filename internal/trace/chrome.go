package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// chromeEvent is one entry of the Chrome trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
// Timestamps and durations are microseconds; pid/tid are small integers we
// assign to backends and units in first-seen order.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// WriteChrome exports events in Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto. Backends map to processes and execution
// units to threads, so GPU batch slices ("X" events) lay out as per-unit
// duty-cycle timelines; each request becomes an async span ("b"/"e") from
// arrival to completion, and drops render as instant events annotated with
// their cause. Metadata ("M") events name the rows.
func WriteChrome(w io.Writer, events []Event) error {
	const frontendPID = 0 // request spans and drops live on the frontend row
	pids := map[string]int{"frontend": frontendPID}
	tids := map[string]int{}
	var out []chromeEvent

	meta := func(pid int, name string) {
		out = append(out, chromeEvent{
			Name: "process_name", Phase: "M", PID: pid,
			Args: map[string]any{"name": name},
		})
	}
	meta(frontendPID, "frontend")

	pid := func(backend string) int {
		p, ok := pids[backend]
		if !ok {
			p = len(pids)
			pids[backend] = p
			meta(p, backend)
		}
		return p
	}
	tid := func(p int, unit string) int {
		key := fmt.Sprintf("%d/%s", p, unit)
		t, ok := tids[key]
		if !ok {
			t = len(tids) + 1
			tids[key] = t
			out = append(out, chromeEvent{
				Name: "thread_name", Phase: "M", PID: p, TID: t,
				Args: map[string]any{"name": unit},
			})
		}
		return t
	}

	// One "X" slice per GPU batch, at its first member's Execute: Execute
	// events are per-request, and the replay keys each batch once.
	batches := replayEvents(events).batches
	arrivals := map[uint64]bool{}
	for i, e := range events {
		switch e.Kind {
		case Arrive:
			arrivals[e.ReqID] = true
			out = append(out, chromeEvent{
				Name: e.Session, Cat: "request", Phase: "b",
				TS: us(e.At), PID: frontendPID, TID: 1,
				ID: fmt.Sprintf("req%d", e.ReqID),
			})
		case Complete, Drop:
			if arrivals[e.ReqID] {
				out = append(out, chromeEvent{
					Name: e.Session, Cat: "request", Phase: "e",
					TS: us(e.At), PID: frontendPID, TID: 1,
					ID: fmt.Sprintf("req%d", e.ReqID),
				})
			}
			if e.Kind == Drop {
				out = append(out, chromeEvent{
					Name: "drop:" + e.Cause, Cat: "drop", Phase: "i",
					TS: us(e.At), PID: frontendPID, TID: 1, Scope: "t",
					Args: map[string]any{"session": e.Session, "req": e.ReqID},
				})
			}
		case Execute:
			if len(batches) == 0 || batches[0].first != i {
				continue
			}
			batches = batches[1:]
			p := pid(e.Backend)
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("%s batch=%d", e.Session, e.Batch),
				Cat:  "gpu", Phase: "X",
				TS: us(e.At), Dur: us(e.Dur), PID: p, TID: tid(p, e.Unit),
				Args: map[string]any{"batch": e.Batch, "inc": e.Inc},
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeDoc{TraceEvents: out, DisplayTimeUnit: "ms"})
}
