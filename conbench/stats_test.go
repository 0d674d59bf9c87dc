package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 91, 10},
		{ten, 100, 10},
		{ten, 1, 1},
		{[]float64{42}, 50, 42},
		{[]float64{42}, 90, 42},
		{[]float64{3, 1}, 50, 1},
		{[]float64{3, 1}, 51, 3},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	if ten[0] != 10 || ten[9] != 5 {
		t.Errorf("percentile reordered its input: %v", ten)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

func TestSupportsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{0, 50, false},
		{19, 50, false},
		{20, 50, true},
		{99, 90, false},
		{100, 90, true},
		{1000, 99, true},
		{999, 99, false},
	} {
		if got := supports(tc.n, tc.p); got != tc.want {
			t.Errorf("supports(%d, p%v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio over no work = %v, want 0", got)
	}
	if got := finite(ratio(1, 3) - percentile(nil, 50)); got != 0 {
		t.Errorf("finite(NaN) = %v, want 0", got)
	}
}

// TestSelfTimes builds a span tree by hand: self time is wall time
// minus the direct children, and spans outside a traced operation are
// not recorded.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(d time.Duration) time.Duration { return d * time.Millisecond }
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "op", Start: at(0), End: at(100)},
		{ID: 1, Parent: 0, Name: "nm.plan", Start: at(0), End: at(10)},
		{ID: 2, Parent: 0, Name: "igp.settle", Start: at(10), End: at(90)},
		{ID: 3, Parent: 2, Name: "dataplane.verify", Start: at(20), End: at(25)},
		{ID: 4, Parent: 2, Name: "dataplane.verify", Start: at(80), End: at(90)},
	}
	lts := tr.selfTimes()
	for name, want := range map[string]time.Duration{
		"op": at(10), "nm.plan": at(10), "igp.settle": at(65), "dataplane.verify": at(15),
	} {
		if got := lts[name].Self; got != want {
			t.Errorf("%s self = %v, want %v", name, got, want)
		}
	}
	if got := lts["dataplane.verify"].Calls; got != 2 {
		t.Errorf("verify calls = %d, want 2", got)
	}

	live := newTracer()
	if id := live.begin("nm.plan"); id != -1 {
		t.Errorf("begin outside an operation = %d, want -1", id)
	}
	root := live.startOp(true)
	child := live.begin("nm.plan")
	live.end(child)
	live.endOp(root)
	untraced := live.startOp(false)
	live.end(live.begin("nm.plan"))
	live.endOp(untraced)
	if len(live.spans) != 2 || live.spans[1].Parent != root {
		t.Errorf("recorded spans %+v, want op and one child", live.spans)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x"))
}
