package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsmtherm/internal/core"
	"dsmtherm/internal/faultinject"
	"dsmtherm/internal/ntrs"
	"dsmtherm/internal/phys"
	"dsmtherm/internal/rules"
)

// waitDone blocks until the job is terminal (with a generous cap so a
// hang fails the test instead of the suite).
func waitDone(t *testing.T, m *Manager, id string) View {
	t.Helper()
	ch, err := m.Done(id)
	if err != nil {
		t.Fatalf("Done(%s): %v", id, err)
	}
	select {
	case <-ch:
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish", id)
	}
	v, err := m.Get(id)
	if err != nil {
		t.Fatalf("Get(%s): %v", id, err)
	}
	return v
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m
}

// sweepReq builds a small but multi-chunk duty-cycle sweep (2560
// points = 3 chunks at 1024 points/chunk).
func sweepReq(lane Lane) SubmitRequest {
	return SubmitRequest{
		Type: TypeSweep,
		Lane: lane,
		Sweep: &SweepParams{
			Level:  4,
			Points: 2560,
		},
	}
}

func mcReq(samples int) SubmitRequest {
	return SubmitRequest{
		Type: TypeMonteCarlo,
		MonteCarlo: &MonteCarloParams{
			Samples:    samples,
			Seed:       7,
			WidthSigma: 0.05, ThickSigma: 0.05, ILDSigma: 0.05, KdSigma: 0.05,
		},
	}
}

func TestSweepJobLifecycle(t *testing.T) {
	m := newTestManager(t, Config{})
	v, err := m.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusQueued || v.Chunks != 3 || v.Lane != LaneBulk {
		t.Fatalf("submit view = %+v", v)
	}
	if _, err := m.Result(v.ID); !errors.Is(err, ErrNotDone) && !errors.Is(err, ErrFailed) {
		// Depending on scheduling the job may already be done; only a
		// wrong error class fails.
		if err != nil {
			t.Fatalf("early Result: %v", err)
		}
	}
	fin := waitDone(t, m, v.ID)
	if fin.Status != StatusDone {
		t.Fatalf("status = %s (err %q), want done", fin.Status, fin.Error)
	}
	if fin.Done != fin.Chunks || fin.Progress != 1 {
		t.Fatalf("progress = %d/%d (%g)", fin.Done, fin.Chunks, fin.Progress)
	}
	raw, err := m.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Points []SweepPointJSON `json:"points"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2560 {
		t.Fatalf("got %d points, want 2560", len(res.Points))
	}
	for i, p := range res.Points {
		if p.JpeakMA <= 0 || p.TmC <= 0 {
			t.Fatalf("point %d not physical: %+v", i, p)
		}
	}
}

// TestMonteCarloJobMatchesDirect is the end-to-end determinism check:
// the chunked, journaled job path must reproduce the one-shot library
// call bit for bit.
func TestMonteCarloJobMatchesDirect(t *testing.T) {
	m := newTestManager(t, Config{Dir: t.TempDir()})
	req := mcReq(2240) // 3 chunks of ≤1024
	v, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if v.Chunks != 3 {
		t.Fatalf("chunks = %d, want 3", v.Chunks)
	}
	fin := waitDone(t, m, v.ID)
	if fin.Status != StatusDone {
		t.Fatalf("status = %s (err %q)", fin.Status, fin.Error)
	}
	raw, err := m.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got mcResultJSON
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}

	tech, err := ntrs.Select("", "", "")
	if err != nil {
		t.Fatal(err)
	}
	spec := rules.Spec{SignalDutyCycle: 0.1, J0: phys.MAPerCm2(1.8), Tref: phys.CToK(100)}
	direct, err := rules.MonteCarlo(tech, spec, rules.Variation{
		Width: 0.05, Thick: 0.05, ILD: 0.05, Kd: 0.05,
		Samples: 2240, Seed: 7, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Levels) != len(direct) {
		t.Fatalf("levels = %d, want %d", len(got.Levels), len(direct))
	}
	for i, d := range direct {
		g := got.Levels[i]
		if g.Level != d.Level ||
			g.P1MA != phys.ToMAPerCm2(d.P1) ||
			g.P50MA != phys.ToMAPerCm2(d.P50) ||
			g.P99MA != phys.ToMAPerCm2(d.P99) ||
			g.NominalMA != phys.ToMAPerCm2(d.Nominal) ||
			g.GuardBand != d.GuardBand {
			t.Fatalf("level %d: job %+v != direct %+v", d.Level, g, d)
		}
	}
}

func TestCouplingJob(t *testing.T) {
	if testing.Short() {
		t.Skip("FDM solve in -short")
	}
	m := newTestManager(t, Config{})
	v, err := m.Submit(SubmitRequest{
		Type: TypeCoupling,
		Coupling: &CouplingParams{
			Levels: 2, LinesPerLevel: 3,
			PitchesUm: []float64{1.0, 1.5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Chunks != 2 {
		t.Fatalf("chunks = %d, want 2 (one per pitch)", v.Chunks)
	}
	fin := waitDone(t, m, v.ID)
	if fin.Status != StatusDone {
		t.Fatalf("status = %s (err %q)", fin.Status, fin.Error)
	}
	raw, err := m.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var res couplingResultJSON
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Factor < 1 || p.Isolated <= 0 || p.Coupled < p.Isolated {
			t.Fatalf("unphysical coupling point %+v", p)
		}
	}
	// Wider pitch couples less.
	if res.Points[1].Factor >= res.Points[0].Factor {
		t.Fatalf("factor did not fall with pitch: %g → %g", res.Points[0].Factor, res.Points[1].Factor)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newTestManager(t, Config{})
	cases := []SubmitRequest{
		{Type: "nosuch"},
		{Type: TypeSweep}, // missing params
		{Type: TypeSweep, Sweep: &SweepParams{Level: 4}, MonteCarlo: &MonteCarloParams{}}, // two params docs
		{Type: TypeSweep, Lane: "urgent", Sweep: &SweepParams{Level: 4}},
		{Type: TypeSweep, Deadline: "yesterday", Sweep: &SweepParams{Level: 4}},
		{Type: TypeSweep, Sweep: &SweepParams{Level: 4, Axis: "sideways"}},
		{Type: TypeSweep, Sweep: &SweepParams{Level: 4, Axis: "j0"}},                     // j0 needs values
		{Type: TypeSweep, Sweep: &SweepParams{Level: 4, Values: []float64{0.5, -1}}},     // bad grid value
		{Type: TypeSweep, Sweep: &SweepParams{Level: 99}},                                // no such level
		{Type: TypeMonteCarlo, MonteCarlo: &MonteCarloParams{Samples: mcMaxSamples + 1}}, // over cap
		{Type: TypeMonteCarlo, MonteCarlo: &MonteCarloParams{WidthSigma: 0.9}},           // spread too wide
		{Type: TypeCoupling, Coupling: &CouplingParams{}},                                // pitches required
		{Type: TypeCoupling, Coupling: &CouplingParams{PitchesUm: []float64{0.1}}},       // pitch < width
	}
	for i, req := range cases {
		if _, err := m.Submit(req); !errors.Is(err, ErrInvalid) && !errors.Is(err, ErrUnknownType) {
			t.Errorf("case %d: err = %v, want ErrInvalid/ErrUnknownType", i, err)
		}
	}
	if _, err := m.Get("jdeadbeef"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get unknown: %v", err)
	}
	if err := m.Cancel("jdeadbeef"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel unknown: %v", err)
	}
}

// stallAfter returns a hook that passes its first n firings, then
// blocks until release closes or the op context dies.
func stallAfter(n int, release <-chan struct{}) faultinject.Hook {
	var calls atomic.Int64
	return func(ctx context.Context) error {
		if calls.Add(1) <= int64(n) {
			return nil
		}
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func TestCancelRunning(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	cancelHook := faultinject.Set(faultinject.SiteJobsStep, stallAfter(0, release))
	defer cancelHook()

	m := newTestManager(t, Config{})
	v, err := m.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the job is actually running (held at the step site).
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := m.Get(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", cur.Status)
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, m, v.ID)
	if fin.Status != StatusCancelled {
		t.Fatalf("status = %s, want cancelled", fin.Status)
	}
	if err := m.Cancel(v.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("double cancel: %v, want ErrTerminal", err)
	}
	if _, err := m.Result(v.ID); !errors.Is(err, ErrFailed) {
		t.Fatalf("cancelled Result: %v, want ErrFailed", err)
	}
}

func TestCancelQueuedAndQueueFull(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	cancelHook := faultinject.Set(faultinject.SiteJobsStep, stallAfter(0, release))
	defer cancelHook()

	m := newTestManager(t, Config{QueueDepth: 2})
	// First job occupies the single worker (stalled at its first step);
	// wait for the dequeue so the queue itself is empty, then two more
	// fill the bulk queue.
	var ids []string
	first, err := m.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, first.ID)
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := m.Get(first.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("first job stuck in %s", cur.Status)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < 3; i++ {
		v, err := m.Submit(sweepReq(LaneBulk))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
	}
	if _, err := m.Submit(sweepReq(LaneBulk)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}
	// The interactive lane is its own bound: still accepts.
	if _, err := m.Submit(sweepReq(LaneInteractive)); err != nil {
		t.Fatalf("interactive submit during bulk overflow: %v", err)
	}
	// Cancel a queued job: terminal immediately, no worker involved.
	if err := m.Cancel(ids[2]); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Get(ids[2]); err != nil || v.Status != StatusCancelled {
		t.Fatalf("queued cancel → %+v, %v", v, err)
	}
}

func TestDeadlineFailsJob(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	cancelHook := faultinject.Set(faultinject.SiteJobsStep, stallAfter(0, release))
	defer cancelHook()

	m := newTestManager(t, Config{})
	req := sweepReq(LaneBulk)
	req.Deadline = "50ms"
	v, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, m, v.ID)
	if fin.Status != StatusFailed || !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("status = %s (err %q), want deadline failure", fin.Status, fin.Error)
	}
}

func TestStepErrorFailsJob(t *testing.T) {
	boom := errors.New("injected solver fault")
	cancelHook := faultinject.Set(faultinject.SiteJobsStep, faultinject.ErrEvery(1, boom))
	defer cancelHook()

	m := newTestManager(t, Config{})
	v, err := m.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, m, v.ID)
	if fin.Status != StatusFailed || !strings.Contains(fin.Error, "injected solver fault") {
		t.Fatalf("status = %s (err %q)", fin.Status, fin.Error)
	}
	if _, err := m.Result(v.ID); !errors.Is(err, ErrFailed) {
		t.Fatalf("failed Result: %v, want ErrFailed", err)
	}
}

// TestCrashResumeBitIdentical is the tentpole invariant: kill the
// process mid-job at a known checkpoint, restart on the same journal
// dir, and the finished result must be byte-identical to a run that was
// never interrupted.
func TestCrashResumeBitIdentical(t *testing.T) {
	req := mcReq(2240) // 3 chunks

	// Reference: uninterrupted run.
	ref := newTestManager(t, Config{Dir: t.TempDir()})
	rv, err := ref.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitDone(t, ref, rv.ID); fin.Status != StatusDone {
		t.Fatalf("reference run: %s (%q)", fin.Status, fin.Error)
	}
	want, err := ref.Result(rv.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Crash run: let chunks 0 and 1 complete and checkpoint, stall chunk
	// 2 at the step site, then kill the manager (no further writes).
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
	// Wait until exactly two chunks are journaled.
	deadline := time.Now().Add(time.Minute)
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

	// The journal on disk must hold exactly the pre-crash checkpoint.
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

	// Restart: the job resumes (2 chunks restored) and finishes.
	m2 := newTestManager(t, Config{Dir: dir})
	st := m2.Stats()
	if st.ResumedBoot != 1 || st.CorruptBoot != 0 {
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
		t.Fatalf("resumed result differs from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestGracefulStopSuspendsAndResumes: Stop() mid-job writes a suspend
// checkpoint; a new manager finishes the job with the same bytes.
func TestGracefulStopSuspendsAndResumes(t *testing.T) {
	req := mcReq(2240) // 3 chunks

	ref := newTestManager(t, Config{Dir: t.TempDir()})
	rv, err := ref.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, ref, rv.ID)
	want, err := ref.Result(rv.ID)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	release := make(chan struct{})
	cancelHook := faultinject.Set(faultinject.SiteJobsStep, stallAfter(1, release))
	m1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		cur, err := m1.Get(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.Done == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("never reached 1 completed chunk")
		}
		time.Sleep(time.Millisecond)
	}
	m1.Stop() // graceful: suspend checkpoint, worker drains
	cancelHook()
	close(release)

	m2 := newTestManager(t, Config{Dir: dir})
	fin := waitDone(t, m2, v.ID)
	if fin.Status != StatusDone {
		t.Fatalf("resumed run: %s (%q)", fin.Status, fin.Error)
	}
	got, err := m2.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("suspend/resume result differs from uninterrupted run")
	}
}

// TestCheckpointErrorSkipsWrite: an injected checkpoint fault must not
// fail the job — it only skips that write.
func TestCheckpointErrorSkipsWrite(t *testing.T) {
	boom := errors.New("disk on fire")
	cancelHook := faultinject.Set(faultinject.SiteJobsCheckpoint, faultinject.ErrEvery(1, boom))
	defer cancelHook()

	m := newTestManager(t, Config{Dir: t.TempDir()})
	v, err := m.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, m, v.ID)
	if fin.Status != StatusDone {
		t.Fatalf("status = %s (err %q), want done despite checkpoint faults", fin.Status, fin.Error)
	}
	if st := m.Stats(); st.CheckpointSkips == 0 {
		t.Fatalf("stats = %+v, want CheckpointSkips > 0", st)
	}
}

func TestCorruptJournalQuarantined(t *testing.T) {
	dir := t.TempDir()

	// A file that is not even framed.
	if err := os.WriteFile(filepath.Join(dir, "jgarbage.job"), []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A validly framed journal whose header payload bits were flipped.
	flipped := &journalFile{journalHeader: journalHeader{
		ID: "jflippd", Type: TypeSweep, Lane: LaneBulk,
		Params: []byte(`{"level":4}`), ParamsSum: paramsSum([]byte(`{"level":4}`)),
		Submitted: time.Now(), Status: StatusQueued, Chunks: 1,
	}}
	good, err := encodeJournal(flipped)
	if err != nil {
		t.Fatal(err)
	}
	good[len(good)-1] ^= 0x20
	if err := os.WriteFile(filepath.Join(dir, "jflippd.job"), good, 0o644); err != nil {
		t.Fatal(err)
	}
	// A journal in format version 1 — one gob frame holding every chunk
	// blob, as older binaries wrote it — is quarantined, never resumed.
	flipped.ID, flipped.Bitmap, flipped.ChunkData = "jformat1", make([]uint64, 1), [][]byte{[]byte("blob")}
	bitSet(flipped.Bitmap, 0)
	if err := os.WriteFile(filepath.Join(dir, "jformat1.job"), v1Frame(t, flipped), 0o644); err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, Config{Dir: dir})
	if st := m.Stats(); st.CorruptBoot != 3 || st.ResumedBoot != 0 {
		t.Fatalf("CorruptBoot = %d, ResumedBoot = %d, want 3, 0", st.CorruptBoot, st.ResumedBoot)
	}
	if _, err := m.Get("jformat1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("format-1 journal restored a job: %v", err)
	}
	for _, name := range []string{"jgarbage.job.corrupt", "jflippd.job.corrupt", "jformat1.job.corrupt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("quarantine file %s: %v", name, err)
		}
	}
	// And the manager still works.
	v, err := m.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitDone(t, m, v.ID); fin.Status != StatusDone {
		t.Fatalf("post-quarantine job: %s", fin.Status)
	}
}

// TestTerminalJobKeepsOutcomeAcrossGridChange: a finished job whose
// journal was written on a different chunk grid (a binary that sized
// its chunks differently) must come back finished with its result, not
// be reset and run again.
func TestTerminalJobKeepsOutcomeAcrossGridChange(t *testing.T) {
	dir := t.TempDir()
	m1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m1.Submit(mcReq(2240)) // 3 chunks
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitDone(t, m1, v.ID); fin.Status != StatusDone {
		t.Fatalf("run: %s (%q)", fin.Status, fin.Error)
	}
	want, err := m1.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	m1.Stop()

	// Rewrite the finished journal as if it came from a 2-chunk grid.
	path := journalPath(dir, v.ID)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	jf, err := decodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if jf.Status != StatusDone || jf.Chunks != 3 || jf.ChunkData != nil {
		t.Fatalf("finished journal: status %s, %d chunks, %d blobs", jf.Status, jf.Chunks, len(jf.ChunkData))
	}
	jf.Chunks, jf.Bitmap = 2, []uint64{0b11}
	if data, err = encodeJournal(&jf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Config{Dir: dir})
	cur, err := m2.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Status != StatusDone || cur.Done != 2 {
		t.Fatalf("finished job came back %s with %d/%d chunks", cur.Status, cur.Done, cur.Chunks)
	}
	got, err := m2.Result(v.ID)
	if err != nil {
		t.Fatalf("finished job lost its result: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("result changed across the restart")
	}
	if st := m2.Stats(); st.ChunksRun != 0 || st.ResumedBoot != 0 {
		t.Fatalf("restart ran %d chunks, resumed %d jobs", st.ChunksRun, st.ResumedBoot)
	}
}

// TestFinishedJobRestoredFromOutcome: a finished job is restored from
// its journaled outcome without re-validating its params, so a limit a
// newer binary tightened cannot cost it its result. The same params in
// a live journal cannot resume, and are quarantined.
func TestFinishedJobRestoredFromOutcome(t *testing.T) {
	dir := t.TempDir()
	params := []byte(fmt.Sprintf(`{"samples":%d,"seed":7,"widthSigma":0.05}`, 2*mcMaxSamples))
	if _, err := newTask(TypeMonteCarlo, params); !errors.Is(err, ErrInvalid) {
		t.Fatalf("params over the samples limit validate: %v", err)
	}
	chunks := (2*mcMaxSamples + mcChunkSamples - 1) / mcChunkSamples
	result := json.RawMessage(`{"samples":200000,"seed":7,"levels":[]}`)
	write := func(id string, st Status) {
		t.Helper()
		jf := &journalFile{journalHeader: journalHeader{
			ID: id, Type: TypeMonteCarlo, Lane: LaneBulk,
			Params: params, ParamsSum: paramsSum(params),
			Submitted: time.Now().UTC(), Status: st, Chunks: chunks,
		}}
		if st == StatusDone {
			jf.Bitmap, jf.Result = make([]uint64, bitmapWords(chunks)), result
			for c := 0; c < chunks; c++ {
				bitSet(jf.Bitmap, c)
			}
		}
		data, err := encodeJournal(jf)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(journalPath(dir, id), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("jfinished", StatusDone)
	write("jlive", StatusQueued)

	m := newTestManager(t, Config{Dir: dir})
	if st := m.Stats(); st.CorruptBoot != 1 || st.Done != 1 {
		t.Fatalf("boot stats: %d corrupt, %d done; want 1, 1", st.CorruptBoot, st.Done)
	}
	v, err := m.Get("jfinished")
	if err != nil || v.Status != StatusDone || v.Done != chunks {
		t.Fatalf("finished job restored as %+v, %v", v, err)
	}
	got, err := m.Result("jfinished")
	if err != nil || !bytes.Equal(got, result) {
		t.Fatalf("finished job's result: %s, %v; want %s", got, err, result)
	}
	if _, err := m.Get("jlive"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("live journal with invalid params restored: %v", err)
	}
	if _, err := os.Stat(journalPath(dir, "jlive") + ".corrupt"); err != nil {
		t.Fatalf("live journal not quarantined: %v", err)
	}
}

// TestLiveJobRetunedGrid: a live journal written on an older chunk grid
// (32-sample Monte Carlo and 16-point sweep chunks, as earlier binaries
// sized them), with two chunks done and one quarantined, restarts from
// zero on today's grid: its progress and its quarantine record are
// dropped, and it finishes with the bytes of an uninterrupted run.
func TestLiveJobRetunedGrid(t *testing.T) {
	for _, tc := range []struct {
		name           string
		req            SubmitRequest
		items, oldSize int // samples or points; the old grid's chunk size
		// oldBlob computes the old grid's blob for items [lo, hi).
		oldBlob func(task Task, lo, hi int) ([]byte, error)
	}{
		{"montecarlo", mcReq(2240), 2240, 32, func(task Task, lo, hi int) ([]byte, error) {
			mc := task.(*monteCarloTask)
			rows, err := rules.MonteCarloRows(mc.tech, mc.spec, mc.v, lo, hi)
			if err != nil {
				return nil, err
			}
			return gobBlob(rows)
		}},
		{"sweep", sweepReq(LaneBulk), 2560, 16, func(task Task, lo, hi int) ([]byte, error) {
			sw := task.(*sweepTask)
			pts, err := core.SweepDutyCycle(sw.prob, sw.grid[lo:hi])
			if err != nil {
				return nil, err
			}
			return gobBlob(pts)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := newTestManager(t, Config{})
			rv, err := ref.Submit(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			if fin := waitDone(t, ref, rv.ID); fin.Status != StatusDone {
				t.Fatalf("reference run: %s (%q)", fin.Status, fin.Error)
			}
			want, err := ref.Result(rv.ID)
			if err != nil {
				t.Fatal(err)
			}

			params, err := canonicalParams(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			task, err := newTask(tc.req.Type, params)
			if err != nil {
				t.Fatal(err)
			}
			oldChunks := (tc.items + tc.oldSize - 1) / tc.oldSize
			jf := &journalFile{
				journalHeader: journalHeader{
					ID: "jretune", Type: tc.req.Type, Lane: LaneBulk,
					Params: params, ParamsSum: paramsSum(params),
					Deadline: time.Minute, Submitted: time.Now().UTC(),
					Status: StatusQueued, Chunks: oldChunks,
					Bitmap:   make([]uint64, bitmapWords(oldChunks)),
					Manifest: EncodeManifest([]ChunkFailure{{Chunk: 2, Attempts: 1, Error: "injected poison"}}),
				},
				ChunkData: make([][]byte, oldChunks),
			}
			for c := 0; c < 2; c++ {
				if jf.ChunkData[c], err = tc.oldBlob(task, c*tc.oldSize, (c+1)*tc.oldSize); err != nil {
					t.Fatal(err)
				}
				bitSet(jf.Bitmap, c)
			}
			dir := t.TempDir()
			data, err := encodeJournal(jf)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := decodeJournal(data); err != nil || bitCount(got.Bitmap, oldChunks) != 2 || len(got.Manifest) == 0 {
				t.Fatalf("old-grid journal replays %d chunks, manifest %d bytes, %v", bitCount(got.Bitmap, oldChunks), len(got.Manifest), err)
			}
			if err := os.WriteFile(journalPath(dir, jf.ID), data, 0o644); err != nil {
				t.Fatal(err)
			}

			release := make(chan struct{})
			unstall := faultinject.Set(faultinject.SiteJobsStep, stallAfter(0, release))
			m := newTestManager(t, Config{Dir: dir})
			v, err := m.Get(jf.ID)
			close(release)
			unstall()
			if err != nil {
				t.Fatal(err)
			}
			if v.Done != 0 || v.Chunks != task.Chunks() || v.Quarantined != 0 || v.Resumed {
				t.Fatalf("retuned job booted at %d/%d chunks, %d quarantined, resumed %t; want 0/%d, 0, false",
					v.Done, v.Chunks, v.Quarantined, v.Resumed, task.Chunks())
			}
			if st := m.Stats(); st.ResumedBoot != 0 || st.CorruptBoot != 0 {
				t.Fatalf("boot stats: %d resumed, %d corrupt; want 0, 0", st.ResumedBoot, st.CorruptBoot)
			}
			fin := waitDone(t, m, jf.ID)
			if fin.Status != StatusDone || fin.Quarantined != 0 {
				t.Fatalf("retuned job: %s (%q), %d quarantined", fin.Status, fin.Error, fin.Quarantined)
			}
			got, err := m.Result(jf.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("retuned job's result differs from an uninterrupted run:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestJournalBytesLinear: a many-chunk Monte Carlo job's journal bytes
// stay within a small constant factor of its chunk blobs — each
// checkpoint appends only its own chunk — and the finished journal
// keeps none of them. The job is the most chunks that fit under
// mcMaxSamples (97 at 1024 samples a chunk).
func TestJournalBytesLinear(t *testing.T) {
	const chunks = mcMaxSamples / mcChunkSamples
	req := mcReq(chunks * mcChunkSamples)
	params, err := canonicalParams(req)
	if err != nil {
		t.Fatal(err)
	}
	task, err := newTask(req.Type, params)
	if err != nil {
		t.Fatal(err)
	}
	if task.Chunks() != chunks {
		t.Fatalf("%d chunks, want %d", task.Chunks(), chunks)
	}
	blobBytes := 0
	for c := 0; c < chunks; c++ {
		blob, err := task.Run(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		blobBytes += len(blob)
	}

	dir := t.TempDir()
	m := newTestManager(t, Config{Dir: dir})
	v, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Done fires only once the compacted journal is written, so the file
	// is looked at straight away, with the manager still running.
	if fin := waitDone(t, m, v.ID); fin.Status != StatusDone {
		t.Fatalf("run: %s (%q)", fin.Status, fin.Error)
	}
	st := m.Stats()
	if st.Checkpoints < chunks {
		t.Fatalf("%d checkpoints for %d chunks", st.Checkpoints, chunks)
	}
	if st.JournalBytes > 2*uint64(blobBytes) {
		t.Fatalf("journal bytes %d for %d bytes of chunk blobs: more than 2x", st.JournalBytes, blobBytes)
	}
	fi, err := os.Stat(journalPath(dir, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > int64(blobBytes)/10 {
		t.Fatalf("finished journal is %d bytes for %d bytes of blobs: not compacted", fi.Size(), blobBytes)
	}
}

// TestTerminalPublishedAfterJournal: a job's final state reaches Get
// and Done only after its compacted journal is written, so a crash
// between the two resumes a job no client has seen finish. A
// journal-write hook looks at the job from inside each write; at the
// terminal write it must still show its live status with Done open.
// Covers the finished-run path and the queued-cancel path.
func TestTerminalPublishedAfterJournal(t *testing.T) {
	release := make(chan struct{})
	unstall := faultinject.Set(faultinject.SiteJobsStep, stallAfter(0, release))
	defer unstall()
	dir := t.TempDir()
	m := newTestManager(t, Config{Dir: dir})
	var mu sync.Mutex
	seen := map[string]Status{} // status at the job's latest journal write
	early := map[string]bool{}  // Done had already fired at a write
	unhook := faultinject.Set(faultinject.SiteJobsJournalWrite, func(ctx context.Context) error {
		id := faultinject.Meta(ctx)
		v, err := m.Get(id)
		if err != nil {
			return nil // the submit write: the job is not visible yet
		}
		ch, err := m.Done(id)
		if err != nil {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		seen[id] = v.Status
		select {
		case <-ch:
			early[id] = true
		default:
		}
		return nil
	})
	defer unhook()

	running, err := m.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if cur, _ := m.Get(running.ID); cur.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
	}
	queued, err := m.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	for _, tc := range []struct {
		id         string
		live, want Status
	}{
		{queued.ID, StatusQueued, StatusCancelled},
		{running.ID, StatusRunning, StatusDone},
	} {
		if fin := waitDone(t, m, tc.id); fin.Status != tc.want {
			t.Fatalf("%s: status %s, want %s", tc.id, fin.Status, tc.want)
		}
		mu.Lock()
		got, wasEarly := seen[tc.id], early[tc.id]
		mu.Unlock()
		if got != tc.live || wasEarly {
			t.Errorf("%s: terminal write saw status %s with Done fired %t, want %s and not fired",
				tc.id, got, wasEarly, tc.live)
		}
		data, err := os.ReadFile(journalPath(dir, tc.id))
		if err != nil {
			t.Fatal(err)
		}
		jf, err := decodeJournal(data)
		if err != nil {
			t.Fatal(err)
		}
		kept := 0
		for _, blob := range jf.ChunkData {
			if blob != nil {
				kept++
			}
		}
		if jf.Status != tc.want || kept != 0 {
			t.Errorf("%s: journal holds %s with %d chunk blobs, want compacted %s", tc.id, jf.Status, kept, tc.want)
		}
	}
}

// TestTerminalJobReleasesTask: a terminal job holds no task — the
// compiled grid and coupled field of a chipcheck task would otherwise
// stay live for as long as the job stays in the table — whether it
// finished by running, was cancelled while queued, or was restored from
// a terminal journal at boot.
func TestTerminalJobReleasesTask(t *testing.T) {
	release := make(chan struct{})
	unstall := faultinject.Set(faultinject.SiteJobsStep, stallAfter(0, release))
	defer unstall()
	dir := t.TempDir()
	m1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	running, err := m1.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if cur, _ := m1.Get(running.ID); cur.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
	}
	queued, err := m1.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	close(release)
	if fin := waitDone(t, m1, running.ID); fin.Status != StatusDone {
		t.Fatalf("running job: %s (%q)", fin.Status, fin.Error)
	}
	if fin := waitDone(t, m1, queued.ID); fin.Status != StatusCancelled {
		t.Fatalf("queued job: %s", fin.Status)
	}
	holdsTask := func(m *Manager, id string) bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.jobs[id].task != nil
	}
	for _, id := range []string{running.ID, queued.ID} {
		if holdsTask(m1, id) {
			t.Errorf("%s: terminal job still holds its task", id)
		}
	}
	m1.Stop()

	m2 := newTestManager(t, Config{Dir: dir})
	for _, id := range []string{running.ID, queued.ID} {
		if v, err := m2.Get(id); err != nil || !v.Status.Terminal() {
			t.Fatalf("%s: restored as %+v, %v", id, v, err)
		}
		if holdsTask(m2, id) {
			t.Errorf("%s: job restored from a terminal journal holds a task", id)
		}
	}
}

// TestInterruptedRewriteRemovedAtBoot: a daemon killed between an
// atomic journal rewrite's temp file and its rename leaves
// <id>.job.tmp<N> behind. The next boot deletes it, leaves quarantined
// *.corrupt files alone, and still resumes the job from its journal.
func TestInterruptedRewriteRemovedAtBoot(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	unstall := faultinject.Set(faultinject.SiteJobsStep, stallAfter(0, release))
	dir := t.TempDir()
	m, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	m.Kill()
	unstall()
	tmp := journalPath(dir, v.ID) + ".tmp2123918284"
	corrupt := filepath.Join(dir, "jdead.job.corrupt")
	for _, p := range []string{tmp, corrupt} {
		if err := os.WriteFile(p, []byte("partial rewrite"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m2 := newTestManager(t, Config{Dir: dir})
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("interrupted rewrite %s survived the boot: %v", filepath.Base(tmp), err)
	}
	if _, err := os.Stat(corrupt); err != nil {
		t.Fatalf("boot touched the quarantined journal: %v", err)
	}
	if fin := waitDone(t, m2, v.ID); fin.Status != StatusDone {
		t.Fatalf("resumed job: %s (%q)", fin.Status, fin.Error)
	}
	for _, name := range []string{"x.job.tmp", "x.job.tmp12a", "x.job.tmp1.corrupt", "x.job"} {
		if interruptedRewrite(name) {
			t.Errorf("%q taken for an interrupted rewrite", name)
		}
	}
}

// TestLaneWeighting drives the pick order directly: with both queues
// full, interactive gets cfg.InteractiveWeight picks per bulk pick, and
// an empty preferred lane falls through (work conserving).
func TestLaneWeighting(t *testing.T) {
	m := &Manager{
		cfg:    Config{InteractiveWeight: 3}.Defaults(),
		jobs:   make(map[string]*job),
		queues: map[Lane][]*job{LaneInteractive: nil, LaneBulk: nil},
	}
	enqueue := func(lane Lane, n int) {
		for i := 0; i < n; i++ {
			m.queues[lane] = append(m.queues[lane], &job{
				id: fmt.Sprintf("%s%d", lane, i), lane: lane, status: StatusQueued,
			})
		}
	}
	enqueue(LaneInteractive, 6)
	enqueue(LaneBulk, 6)
	var got []Lane
	m.mu.Lock()
	for {
		j := m.pickLocked()
		if j == nil {
			break
		}
		got = append(got, j.lane)
	}
	m.mu.Unlock()
	want := []Lane{
		LaneInteractive, LaneInteractive, LaneInteractive, LaneBulk,
		LaneInteractive, LaneInteractive, LaneInteractive, LaneBulk,
		// interactive drained: bulk keeps the worker busy.
		LaneBulk, LaneBulk, LaneBulk, LaneBulk,
	}
	if len(got) != len(want) {
		t.Fatalf("picked %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pick %d = %s, want %s (full order %v)", i, got[i], want[i], got)
		}
	}
}

func TestEvictionBoundsJobTable(t *testing.T) {
	m := newTestManager(t, Config{MaxJobs: 3, QueueDepth: 8})
	var ids []string
	for i := 0; i < 5; i++ {
		v, err := m.Submit(sweepReq(LaneBulk))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, v.ID)
		waitDone(t, m, v.ID) // serialize so earlier jobs are terminal and evictable
	}
	st := m.Stats()
	if st.Evicted != 2 {
		t.Fatalf("Evicted = %d, want 2", st.Evicted)
	}
	if _, err := m.Get(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest job should be evicted, Get = %v", err)
	}
	if _, err := m.Get(ids[4]); err != nil {
		t.Fatalf("newest job missing: %v", err)
	}
}
