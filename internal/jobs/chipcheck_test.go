package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"testing"
	"time"

	"dsmtherm/internal/chipcheck"
	"dsmtherm/internal/faultinject"
)

func fp(v float64) *float64 { return &v }

// chipReq builds a 64×64 ring-padded grid: 8064 branches = 2 verdict
// tiles, so the merge path is exercised without a big solve.
func chipReq() SubmitRequest {
	return SubmitRequest{
		Type: TypeChipcheck,
		Chipcheck: &chipcheck.Params{
			Nx: 64, Ny: 64,
			PadRing:       true,
			WidthMultiple: fp(8),
			UniformLoadA:  fp(6),
		},
	}
}

// bigChipReq is the acceptance-criteria grid: 101×500 nodes =
// 2·101·500−101−500 = 100399 branches (≥ 10⁵), 25 verdict tiles. The
// node numbering puts the short dimension on the matrix bandwidth, so
// the coupled solve stays in the banded/IC0 fast paths.
func bigChipReq() SubmitRequest {
	return SubmitRequest{
		Type: TypeChipcheck,
		Lane: LaneBulk,
		Chipcheck: &chipcheck.Params{
			Nx: 101, Ny: 500,
			PadRing:       true,
			WidthMultiple: fp(8),
			UniformLoadA:  fp(60),
		},
	}
}

// TestChipcheckJobMatchesSync: the chunked, journaled job path must
// reproduce the direct library pipeline byte for byte.
func TestChipcheckJobMatchesSync(t *testing.T) {
	req := chipReq()

	check, err := chipcheck.Compile(*req.Chipcheck)
	if err != nil {
		t.Fatal(err)
	}
	f, err := check.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !f.Converged {
		t.Fatalf("test grid must converge; residuals %v", f.Residuals)
	}
	verdicts, err := check.Verdicts(f, 0, check.NumBranches())
	if err != nil {
		t.Fatal(err)
	}
	res, err := check.Report(f, verdicts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, Config{Dir: t.TempDir()})
	v, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if v.Chunks != 2 {
		t.Fatalf("chunks = %d, want 2 (8064 branches at %d/tile)", v.Chunks, chipTileBranches)
	}
	if fin := waitDone(t, m, v.ID); fin.Status != StatusDone {
		t.Fatalf("status = %s (%q)", fin.Status, fin.Error)
	}
	got, err := m.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("job result differs from direct pipeline:\n got %.200s...\nwant %.200s...", got, want)
	}
}

func TestChipcheckSubmitValidation(t *testing.T) {
	m := newTestManager(t, Config{})
	// Malformed grid.
	bad := chipReq()
	bad.Chipcheck.Nx = 0
	if _, err := m.Submit(bad); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bad grid: err = %v, want ErrInvalid", err)
	}
	// Type/params mismatch.
	mismatch := chipReq()
	mismatch.Type = TypeSweep
	if _, err := m.Submit(mismatch); !errors.Is(err, ErrInvalid) {
		t.Fatalf("type mismatch: err = %v, want ErrInvalid", err)
	}
}

// TestChipcheckCrashResumeBitIdentical is the acceptance criterion: a
// 10⁵-branch grid, run as a bulk-lane job, killed mid-run at a known
// checkpoint, must resume from its journal and finish byte-identical to
// an uninterrupted run — even though the crash also threw away the
// in-memory coupled field, which the restarted process recomputes.
func TestChipcheckCrashResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("three ~10⁵-branch coupled solves; skipped in -short")
	}
	req := bigChipReq()

	ref := newTestManager(t, Config{Dir: t.TempDir()})
	rv, err := ref.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Lane != LaneBulk {
		t.Fatalf("lane = %s, want bulk", rv.Lane)
	}
	if rv.Chunks != 25 {
		t.Fatalf("chunks = %d, want 25 (100399 branches at %d/tile)", rv.Chunks, chipTileBranches)
	}
	if fin := waitDone(t, ref, rv.ID); fin.Status != StatusDone {
		t.Fatalf("reference run: %s (%q)", fin.Status, fin.Error)
	}
	want, err := ref.Result(rv.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Crash run: two chunks journaled, then kill (no further writes).
	dir := t.TempDir()
	release := make(chan struct{})
	cancelHook := faultinject.Set(faultinject.SiteJobsStep, stallAfter(2, release))
	m1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		cur, err := m1.Get(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Done == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached 2 completed chunks (at %d)", cur.Done)
		}
		time.Sleep(time.Millisecond)
	}
	m1.Kill()
	cancelHook()
	close(release)

	data, err := os.ReadFile(journalPath(dir, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	jf, err := decodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if jf.Status != StatusQueued || bitCount(jf.Bitmap, jf.Chunks) != 2 || jf.Valid != len(data) {
		t.Fatalf("journal after crash: status %s, %d/%d chunks, %d/%d bytes replayed",
			jf.Status, bitCount(jf.Bitmap, jf.Chunks), jf.Chunks, jf.Valid, len(data))
	}

	m2 := newTestManager(t, Config{Dir: dir})
	if st := m2.Stats(); st.ResumedBoot != 1 || st.CorruptBoot != 0 {
		t.Fatalf("boot stats = %+v, want 1 resumed, 0 corrupt", st)
	}
	cur, err := m2.Get(v.ID)
	if err != nil {
		t.Fatalf("resumed job lost: %v", err)
	}
	if !cur.Resumed {
		t.Fatalf("view not marked resumed: %+v", cur)
	}
	fin := waitDone(t, m2, v.ID)
	if fin.Status != StatusDone {
		t.Fatalf("resumed run: %s (%q)", fin.Status, fin.Error)
	}
	got, err := m2.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed 10⁵-branch result differs from uninterrupted run (lengths %d vs %d)", len(got), len(want))
	}
}

// TestChipcheckCancelMidSolve: cancelling while the shared coupled
// field is still solving must fail the job with the cancel cause, not
// hang on the field mutex or cache a context error for later chunks.
func TestChipcheckCancelMidSolve(t *testing.T) {
	m := newTestManager(t, Config{})
	req := chipReq()
	v, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(v.ID); err != nil && !errors.Is(err, ErrTerminal) {
		t.Fatal(err)
	}
	fin := waitDone(t, m, v.ID)
	if fin.Status != StatusCancelled && fin.Status != StatusDone {
		t.Fatalf("status = %s (%q), want cancelled (or done if it raced completion)", fin.Status, fin.Error)
	}
}
