package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the ID of the enclosing span (-1 for an operation's root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run; write dumps them at
// exit. Workloads run one operation at a time on one goroutine, so the
// open-span stack needs no lock. While no operation is traced (or on a
// nil tracer), begin returns -1 and end ignores it, so untraced
// operations pay one branch.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int
	op     int
	active bool
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// startOp opens the root span of a new operation when traced is set.
func (t *tracer) startOp(traced bool) int { return t.startRoot(traced, "op") }

// startRoot opens a named root span: "op" for a workload operation, a
// layer name for a one-off measurement outside the operations.
func (t *tracer) startRoot(traced bool, name string) int {
	t.active = traced
	if !traced {
		return -1
	}
	t.op++
	return t.begin(name)
}

// endOp closes the operation's root span.
func (t *tracer) endOp(root int) {
	t.end(root)
	t.active = false
	t.open = t.open[:0]
}

func (t *tracer) begin(name string) int {
	if t == nil || !t.active {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: time.Since(t.t0)})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0)
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = t.open[:i]
			break
		}
	}
}

// layerTime is the summed wall and self time of every span with one name.
type layerTime struct {
	Name        string
	Calls       int
	Wall, Self  time.Duration
	Durations   []float64 // per-call wall time in ms
	SelfPerCall []float64 // per-call self time in ms
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the time its direct children cover; children of one span never
// overlap because an operation runs on one goroutine.
func (t *tracer) selfTimes() map[string]*layerTime {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerTime)
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			out[s.Name] = lt
		}
		wall := s.End - s.Start
		self := wall - child[i]
		lt.Calls++
		lt.Wall += wall
		lt.Self += self
		lt.Durations = append(lt.Durations, ms(wall))
		lt.SelfPerCall = append(lt.SelfPerCall, ms(self))
	}
	return out
}

// printSelfTimes renders the per-layer self-time table, heaviest first.
func printSelfTimes(w io.Writer, lts map[string]*layerTime, ops int) {
	rows := make([]*layerTime, 0, len(lts))
	for _, lt := range lts {
		rows = append(rows, lt)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	fmt.Fprintf(w, "%-20s %8s %12s %12s %14s\n", "span", "calls", "wall ms", "self ms", "self ms/op")
	for _, lt := range rows {
		fmt.Fprintf(w, "%-20s %8d %12.2f %12.2f %14.3f\n",
			lt.Name, lt.Calls, ms(lt.Wall), ms(lt.Self), ratio(ms(lt.Self), float64(ops)))
	}
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
