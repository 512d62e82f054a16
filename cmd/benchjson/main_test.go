package main

import (
	"reflect"
	"strings"
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

// TestCompare: -compare reports each shared benchmark's median ratio,
// resolved only for disjoint ranges of repeated samples, lists the
// benchmarks in one file only, and fails only on a resolved slowdown
// past gateBound.
func TestCompare(t *testing.T) {
	b := func(name string, med, lo, hi float64, samples int) benchmark {
		return benchmark{Name: name, NsPerOp: med, MinNs: lo, MaxNs: hi, Samples: samples}
	}
	old := report{Benchmarks: []benchmark{
		b("BenchmarkFaster", 100, 95, 105, 5),
		b("BenchmarkNoise", 100, 90, 130, 5),
		b("BenchmarkSlowerInBound", 100, 98, 102, 5),
		b("BenchmarkSlowerPastBound", 100, 98, 102, 5),
		b("BenchmarkOverlapPastBound", 100, 80, 140, 5),
		b("BenchmarkOneSample", 100, 0, 0, 0),
		b("BenchmarkGone", 100, 90, 110, 5),
	}}
	for _, tc := range []struct {
		name       string
		n          benchmark
		want       string
		wantFailed bool
	}{
		{"faster", b("BenchmarkFaster", 60, 58, 64, 5), "0.600  resolved", false},
		{"noise", b("BenchmarkNoise", 120, 110, 125, 5), "1.200  \n", false},
		{"slower in bound", b("BenchmarkSlowerInBound", 120, 118, 123, 5), "1.200  resolved\n", false},
		{"slower past bound", b("BenchmarkSlowerPastBound", 130, 127, 133, 5), "1.300  resolved, FAIL", true},
		{"overlap past bound", b("BenchmarkOverlapPastBound", 150, 139, 160, 5), "1.500  \n", false},
		{"one sample", b("BenchmarkOneSample", 200, 190, 210, 5), "2.000  no spread recorded", false},
		{"new only", b("BenchmarkNew", 10, 9, 11, 5), "only in new: BenchmarkNew", false},
	} {
		var out strings.Builder
		failed := compare(&out, old, report{Benchmarks: []benchmark{tc.n}})
		if !strings.Contains(out.String(), tc.want) || failed != tc.wantFailed {
			t.Errorf("%s: failed=%t, output\n%s\nwant failed=%t and %q", tc.name, failed, out.String(), tc.wantFailed, tc.want)
		}
		if !strings.Contains(out.String(), "only in old: BenchmarkGone") {
			t.Errorf("%s: BenchmarkGone not listed as old-only:\n%s", tc.name, out.String())
		}
	}
}
