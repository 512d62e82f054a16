package fdm

import (
	"math"
	"testing"

	"dsmtherm/internal/geometry"
	"dsmtherm/internal/material"
	"dsmtherm/internal/mathx"
	"dsmtherm/internal/phys"
)

// locateRef is the pre-binary-search linear scan, kept as the behavioral
// reference for TestLocateBinarySearch.
func locateRef(planes []float64, v float64) int {
	n := len(planes) - 1
	for i := 0; i < n; i++ {
		if v < planes[i+1] {
			return i
		}
	}
	return n - 1
}

// TestLocateBinarySearch locks the binary-search locate against the old
// linear scan on every boundary case: below the domain, exactly on each
// plane (interior planes belong to the upper cell), mid-cell, on the top
// plane, and above the domain.
func TestLocateBinarySearch(t *testing.T) {
	planes := []float64{0, 0.5, 1.25, 2, 3.75, 5}
	cases := []struct {
		v    float64
		want int
	}{
		{-1, 0},     // below the domain clamps to cell 0
		{0, 0},      // lower boundary
		{0.25, 0},   // mid first cell
		{0.5, 1},    // interior plane belongs to the upper cell
		{1, 1},      // mid cell
		{1.25, 2},   // interior plane
		{2, 3},      // interior plane
		{3.7499, 3}, // just below a plane
		{3.75, 4},   // interior plane
		{4.9, 4},    // mid last cell
		{5, 4},      // top plane clamps to the last cell
		{6, 4},      // above the domain clamps to the last cell
	}
	for _, c := range cases {
		if got := locate(planes, c.v); got != c.want {
			t.Errorf("locate(%v) = %d, want %d", c.v, got, c.want)
		}
		if got, ref := locate(planes, c.v), locateRef(planes, c.v); got != ref {
			t.Errorf("locate(%v) = %d diverges from linear-scan reference %d", c.v, got, ref)
		}
	}
	// Dense sweep against the reference, including plane values.
	for i := 0; i <= 1000; i++ {
		v := -0.5 + 6.0*float64(i)/1000
		if got, ref := locate(planes, v), locateRef(planes, v); got != ref {
			t.Fatalf("locate(%v) = %d, reference %d", v, got, ref)
		}
	}
	for _, p := range planes {
		if got, ref := locate(planes, p), locateRef(planes, p); got != ref {
			t.Fatalf("locate(plane %v) = %d, reference %d", p, got, ref)
		}
	}
}

func batchTestArray(t testing.TB) *geometry.Array {
	t.Helper()
	ar, err := geometry.UniformArray(3, 3, &material.Cu,
		phys.Microns(0.5), phys.Microns(0.6), phys.Microns(1.0), phys.Microns(0.8),
		&material.Oxide, &material.Oxide, phys.Microns(1.5))
	if err != nil {
		t.Fatal(err)
	}
	return ar
}

func batchTestPowers(s *Solver) []map[LineRef]float64 {
	var batch []map[LineRef]float64
	for _, ref := range s.Lines() {
		batch = append(batch, map[LineRef]float64{ref: 1.0})
	}
	all := make(map[LineRef]float64)
	for _, ref := range s.Lines() {
		all[ref] = 1.0
	}
	batch = append(batch, all)
	return batch
}

// TestSolveBatchMatchesSolve: batched solves agree with individual Solve
// calls to solver tolerance, and the batch's first (cold-start) entry is
// bit-identical to Solve.
func TestSolveBatchMatchesSolve(t *testing.T) {
	s, err := NewSolver(batchTestArray(t), DefaultResolution(batchTestArray(t)))
	if err != nil {
		t.Fatal(err)
	}
	batch := batchTestPowers(s)
	fields, err := s.SolveBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != len(batch) {
		t.Fatalf("got %d fields for %d entries", len(fields), len(batch))
	}
	for i, powers := range batch {
		single, err := s.Solve(powers)
		if err != nil {
			t.Fatal(err)
		}
		for ref := range powers {
			a, err := fields[i].LineDeltaT(ref)
			if err != nil {
				t.Fatal(err)
			}
			b, err := single.LineDeltaT(ref)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(a-b) > 1e-7*math.Abs(b) {
				t.Errorf("entry %d line %v: batch %v vs solve %v", i, ref, a, b)
			}
		}
	}
	// Entry 0 runs the identical cold-start path as Solve.
	single, err := s.Solve(batch[0])
	if err != nil {
		t.Fatal(err)
	}
	for k := range single.dt {
		if math.Float64bits(single.dt[k]) != math.Float64bits(fields[0].dt[k]) {
			t.Fatalf("batch entry 0 not bit-identical to Solve at cell %d", k)
		}
	}
}

// TestSolveBatchDeterministicAcrossWorkers: the whole batch — warm starts,
// concurrent CG runs, parallel kernels — produces bit-identical fields at
// worker counts 1, 2 and 8.
func TestSolveBatchDeterministicAcrossWorkers(t *testing.T) {
	s, err := NewSolver(batchTestArray(t), DefaultResolution(batchTestArray(t)))
	if err != nil {
		t.Fatal(err)
	}
	batch := batchTestPowers(s)
	var runs [][][]float64
	for _, w := range []int{1, 2, 8} {
		mathx.SetWorkers(w)
		fields, err := s.SolveBatch(batch)
		mathx.SetWorkers(0)
		if err != nil {
			t.Fatal(err)
		}
		var dts [][]float64
		for _, f := range fields {
			dts = append(dts, f.dt)
		}
		runs = append(runs, dts)
	}
	for r := 1; r < len(runs); r++ {
		for i := range runs[r] {
			for k := range runs[r][i] {
				if math.Float64bits(runs[r][i][k]) != math.Float64bits(runs[0][i][k]) {
					t.Fatalf("run %d entry %d cell %d drifted between worker counts", r, i, k)
				}
			}
		}
	}
}

// TestSolveBatchValidation: bad entries fail with the entry index; the
// empty batch is a no-op.
func TestSolveBatchValidation(t *testing.T) {
	s, err := NewSolver(batchTestArray(t), DefaultResolution(batchTestArray(t)))
	if err != nil {
		t.Fatal(err)
	}
	fields, err := s.SolveBatch(nil)
	if fields != nil || err != nil {
		t.Fatalf("empty batch: got %v, %v", fields, err)
	}
	_, err = s.SolveBatch([]map[LineRef]float64{
		{LineRef{Level: 1, Index: 0}: 1},
		{LineRef{Level: 9, Index: 9}: 1},
	})
	if err == nil {
		t.Fatal("unknown line must fail")
	}
	_, err = s.SolveBatch([]map[LineRef]float64{
		{LineRef{Level: 1, Index: 0}: -1},
	})
	if err == nil {
		t.Fatal("negative power must fail")
	}
}
