package main

import (
	"reflect"
	"testing"
)

// TestFoldAndSpeedups: the lines -count prints for one benchmark fold
// into one entry (median, min, max, sample count, median metrics), in
// order of first appearance, and a speedup resolves only when the
// serial and fast ranges are disjoint.
func TestFoldAndSpeedups(t *testing.T) {
	lines := []string{
		"BenchmarkA/serial-2   10   300 ns/op   8 B/op",
		"BenchmarkA/parallel-2 10   100 ns/op   8 B/op",
		"BenchmarkA/serial-2   10   500 ns/op   16 B/op",
		"BenchmarkA/parallel-2 10   120 ns/op   8 B/op",
		"BenchmarkA/serial-2   10   400 ns/op   8 B/op",
		"BenchmarkA/parallel-2 10   110 ns/op   4 B/op",
		"BenchmarkB/serial-2   5    100 ns/op",
		"BenchmarkB/batch-2    5     90 ns/op",
		"BenchmarkB/serial-2   5    140 ns/op",
		"BenchmarkB/batch-2    5    120 ns/op",
		"BenchmarkC-2          7     50 ns/op",
		"ok  dsmtherm/x 1.0s",
	}
	var samples []benchmark
	for _, l := range lines {
		if b, ok := parseBenchLine(l); ok {
			samples = append(samples, b)
		}
	}
	got := fold(samples)
	want := []benchmark{
		{Name: "BenchmarkA/serial", Runs: 10, NsPerOp: 400, MinNs: 300, MaxNs: 500, Samples: 3, Metrics: map[string]float64{"B/op": 8}},
		{Name: "BenchmarkA/parallel", Runs: 10, NsPerOp: 110, MinNs: 100, MaxNs: 120, Samples: 3, Metrics: map[string]float64{"B/op": 8}},
		{Name: "BenchmarkB/serial", Runs: 5, NsPerOp: 120, MinNs: 100, MaxNs: 140, Samples: 2},
		{Name: "BenchmarkB/batch", Runs: 5, NsPerOp: 105, MinNs: 90, MaxNs: 120, Samples: 2},
		{Name: "BenchmarkC", Runs: 7, NsPerOp: 50, MinNs: 50, MaxNs: 50, Samples: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fold:\n got %+v\nwant %+v", got, want)
	}
	sp := deriveSpeedups(got)
	if len(sp) != 2 {
		t.Fatalf("%d speedups, want 2: %+v", len(sp), sp)
	}
	if sp[0].Name != "BenchmarkA" || sp[0].Speedup != 400.0/110 || !sp[0].Resolved {
		t.Errorf("A: %+v, want 400/110 resolved (ranges 300-500 and 100-120)", sp[0])
	}
	if sp[1].Name != "BenchmarkB" || sp[1].FastName != "batch" || sp[1].Resolved {
		t.Errorf("B: %+v, want unresolved (ranges 100-140 and 90-120 overlap)", sp[1])
	}
}
