package main

import "testing"

// TestSelfTime pins self time as a span's duration minus the union of
// its children's intervals, clipped to the span: overlapping children
// count once, and a child running past its parent's end counts only
// up to it.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "request", Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, Dur: 20},
		{ID: 3, Parent: 1, Name: "b", Start: 20, Dur: 30},
		{ID: 4, Parent: 1, Name: "c", Start: 90, Dur: 30},
		{ID: 5, Parent: 3, Name: "d", Start: 25, Dur: 5},
	}}
	tr.selfTimes()
	want := map[string]float64{"request": 50, "a": 20, "b": 25, "c": 30, "d": 5}
	for _, s := range tr.spans {
		if s.Self != want[s.Name] {
			t.Errorf("%s: self %g, want %g", s.Name, s.Self, want[s.Name])
		}
	}
}
