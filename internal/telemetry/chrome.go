package telemetry

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/simtrace"
)

// laneName labels a timeline row for the viewer's left gutter.
func laneName(lane int) string {
	switch lane {
	case 0:
		return "request"
	case 1:
		return "job"
	default:
		return fmt.Sprintf("cell %d", lane-2)
	}
}

// WriteChromeTrace writes the trace as Chrome trace-event JSON: one
// complete ("X") event per span on its lane's row, preceded by metadata
// naming the process (the trace ID) and each populated lane. Timestamps
// are microseconds since the earliest span start, so a job's timeline
// always begins at 0 and backoff gaps between attempt spans read directly
// as idle time.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	var epoch time.Time
	lanes := map[int]bool{}
	for _, sp := range spans {
		if epoch.IsZero() || sp.Start.Before(epoch) {
			epoch = sp.Start
		}
		lanes[sp.Lane] = true
	}
	rows := make([]simtrace.ChromeRow, 0, len(lanes))
	for l := range lanes {
		rows = append(rows, simtrace.ChromeRow{Tid: l, Name: laneName(l)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Tid < rows[j].Tid })
	events := make([]simtrace.ChromeEvent, 0, len(spans))
	for _, sp := range spans {
		end := sp.End
		if end.IsZero() {
			end = sp.Start
		}
		args := map[string]string{"span_id": sp.SpanID}
		if sp.Parent != "" {
			args["parent_id"] = sp.Parent
		}
		for k, v := range sp.Attrs {
			args[k] = v
		}
		events = append(events, simtrace.ChromeEvent{
			Name:  sp.Name,
			Cat:   "service",
			Phase: "X",
			Ts:    sp.Start.Sub(epoch).Microseconds(),
			Dur:   end.Sub(sp.Start).Microseconds(),
			Pid:   1,
			Tid:   sp.Lane,
			Args:  args,
		})
	}
	return simtrace.EncodeChrome(w, "trace "+t.TraceID(), rows, events)
}
