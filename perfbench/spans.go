package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req: a job ID on the service, a trace or cell key on the
// figure sweeps.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Req    string    `json:"req,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// Work done inside the span, where the caller counted it.
	Refs   int64 `json:"refs,omitempty"`
	Events int64 `json:"events,omitempty"`
	Alloc  int64 `json:"alloc_bytes,omitempty"`
}

// work is what a finished span did.
type work struct{ refs, events, alloc int64 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced rounds run the same code with tracing off.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// start opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) start(parent int, name, req string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: time.Now()})
	return id
}

// end closes span id, recording what it did.
func (t *tracer) end(id int, w work) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Refs, s.Events, s.Alloc = now, w.refs, w.events, w.alloc
}

// note adds work counted after span id ended.
func (t *tracer) note(id int, w work) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	s := &t.spans[id-1]
	s.Refs, s.Events, s.Alloc = s.Refs+w.refs, s.Events+w.events, s.Alloc+w.alloc
	t.mu.Unlock()
}

// seconds is span id's duration.
func (t *tracer) seconds(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return s.End.Sub(s.Start).Seconds()
}

// label sets span id's request ID once it is known (a job ID arrives with
// the submit response).
func (t *tracer) label(id int, req string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Req = req
	t.mu.Unlock()
}

// since returns a copy of the spans opened after the first n.
func (t *tracer) since(n int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[n:]...)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeNDJSON writes every span, one JSON object a line.
func (t *tracer) writeNDJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Children may overlap one another (parallel clients); the
// covered part is the union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start.Before(cs[j].Start) })
		var covered time.Duration
		var curS, curE time.Time
		for _, c := range cs {
			cS, cE := c.Start, c.End
			if cS.Before(s.Start) {
				cS = s.Start
			}
			if cE.After(s.End) {
				cE = s.End
			}
			if !cE.After(cS) {
				continue
			}
			if curE.IsZero() || cS.After(curE) {
				covered += curE.Sub(curS)
				curS, curE = cS, cE
			} else if cE.After(curE) {
				curE = cE
			}
		}
		covered += curE.Sub(curS)
		out[s.ID] = s.End.Sub(s.Start) - covered
	}
	return out
}

// layerSum is one layer's share of a set of spans.
type layerSum struct {
	calls               int
	self                time.Duration
	refs, events, alloc int64
}

// summarize groups spans by name.
func summarize(spans []span) map[string]*layerSum {
	self := selfTimes(spans)
	out := make(map[string]*layerSum)
	for _, s := range spans {
		l := out[s.Name]
		if l == nil {
			l = &layerSum{}
			out[s.Name] = l
		}
		l.calls++
		l.self += self[s.ID]
		l.refs += s.Refs
		l.events += s.Events
		l.alloc += s.Alloc
	}
	return out
}
