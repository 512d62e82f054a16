package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dsmtherm/internal/faultinject"
	"dsmtherm/internal/mathx"
	"dsmtherm/internal/resilience"
)

// The chunk-supervision chaos suite: transient faults must be invisible
// in the result bytes, poison faults must quarantine exactly their
// chunk, quarantine decisions must survive a crash bit-identically, and
// a failing journal must degrade checkpointing instead of failing jobs.

// fastRetry returns a config tuned so retry backoff does not dominate
// test wall-clock.
func fastRetry(dir string) Config {
	return Config{
		Dir:              dir,
		ChunkRetries:     2,
		RetryBackoffBase: time.Millisecond,
		RetryBackoffCap:  4 * time.Millisecond,
	}
}

// metaChunk extracts the ":<chunk>" suffix match for hook predicates.
func metaChunk(meta string, c int) bool {
	return strings.HasSuffix(meta, fmt.Sprintf(":%d", c))
}

// TestTransientFaultsByteIdentical is the headline chaos acceptance: a
// multi-chunk Monte Carlo job whose chunks fail transiently up to
// ChunkRetries times must complete with a result byte-identical to an
// un-faulted run.
func TestTransientFaultsByteIdentical(t *testing.T) {
	req := mcReq(3 * mcChunkSamples) // 3 chunks

	clean := newTestManager(t, Config{Dir: t.TempDir()})
	v, err := clean.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitDone(t, clean, v.ID); fin.Status != StatusDone {
		t.Fatalf("clean run: %s (%s)", fin.Status, fin.Error)
	}
	want, err := clean.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Every chunk's first two attempts fail transiently (ChunkRetries=2,
	// so the third attempt is still within budget).
	var fails sync.Map // meta -> *int
	cancel := faultinject.Set(faultinject.SiteJobsStep, func(ctx context.Context) error {
		n, _ := fails.LoadOrStore(faultinject.Meta(ctx), new(int))
		c := n.(*int)
		*c++
		if *c <= 2 {
			return resilience.Transient(errors.New("injected transient fault"))
		}
		return nil
	})
	defer cancel()

	faulted := newTestManager(t, fastRetry(t.TempDir()))
	fv, err := faulted.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, faulted, fv.ID)
	if fin.Status != StatusDone {
		t.Fatalf("faulted run: %s (%s)", fin.Status, fin.Error)
	}
	if fin.Quarantined != 0 {
		t.Fatalf("faulted run quarantined %d chunks", fin.Quarantined)
	}
	got, err := faulted.Result(fv.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("faulted result differs from clean result:\n got %s\nwant %s", got, want)
	}
	if st := faulted.Stats(); st.ChunkRetries != 6 { // 3 chunks × 2 retries
		t.Fatalf("ChunkRetries = %d, want 6", st.ChunkRetries)
	}
}

// TestPoisonChunkQuarantine: one permanently poisoned chunk must
// quarantine (no retries burned) and the job must finish
// completed_partial with an accurate manifest and the other chunks'
// work intact.
func TestPoisonChunkQuarantine(t *testing.T) {
	cancel := faultinject.Set(faultinject.SiteJobsStep, func(ctx context.Context) error {
		if metaChunk(faultinject.Meta(ctx), 1) {
			return resilience.Poison(errors.New("injected poison"))
		}
		return nil
	})
	defer cancel()

	m := newTestManager(t, fastRetry(t.TempDir()))
	v, err := m.Submit(sweepReq(LaneBulk)) // 3 chunks
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, m, v.ID)
	if fin.Status != StatusCompletedPartial {
		t.Fatalf("status = %s (%s), want completed_partial", fin.Status, fin.Error)
	}
	if fin.Quarantined != 1 || len(fin.Manifest) != 1 {
		t.Fatalf("quarantined = %d, manifest = %+v", fin.Quarantined, fin.Manifest)
	}
	mf := fin.Manifest[0]
	if mf.Chunk != 1 || mf.Attempts != 1 || !strings.Contains(mf.Error, "injected poison") {
		t.Fatalf("manifest entry = %+v", mf)
	}
	if fin.Done != 2 {
		t.Fatalf("completed chunks = %d, want 2", fin.Done)
	}
	st := m.Stats()
	if st.ChunksQuarantined != 1 || st.PartialJobs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ChunkRetries != 0 {
		t.Fatalf("poison burned %d retries, want 0", st.ChunkRetries)
	}
	raw, err := m.Result(v.ID)
	if err != nil {
		t.Fatalf("partial result: %v", err)
	}
	var doc struct {
		Status    string         `json:"status"`
		Chunks    int            `json:"chunks"`
		Completed int            `json:"completedChunks"`
		Manifest  []ChunkFailure `json:"manifest"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != string(StatusCompletedPartial) || doc.Chunks != 3 || doc.Completed != 2 || len(doc.Manifest) != 1 {
		t.Fatalf("result doc = %+v", doc)
	}
}

// TestNumericChunkQuarantine: an error wrapping mathx.ErrNumeric —
// even unmarked by resilience — quarantines immediately, because
// re-running identical inputs recomputes the same pathology.
func TestNumericChunkQuarantine(t *testing.T) {
	cancel := faultinject.Set(faultinject.SiteJobsStep, func(ctx context.Context) error {
		if metaChunk(faultinject.Meta(ctx), 0) {
			return fmt.Errorf("solve blew up: %w", mathx.ErrNumeric)
		}
		return nil
	})
	defer cancel()

	m := newTestManager(t, fastRetry(t.TempDir()))
	v, err := m.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, m, v.ID)
	if fin.Status != StatusCompletedPartial || fin.Quarantined != 1 {
		t.Fatalf("status = %s, quarantined = %d", fin.Status, fin.Quarantined)
	}
	if mf := fin.Manifest[0]; mf.Chunk != 0 || mf.Attempts != 1 {
		t.Fatalf("manifest entry = %+v", mf)
	}
	if st := m.Stats(); st.ChunkRetries != 0 {
		t.Fatalf("numeric failure burned %d retries", st.ChunkRetries)
	}
}

// TestUnmarkedErrorStillFailsJob pins the back-compat contract: an
// unclassified chunk error fails the whole job, exactly as before the
// supervisor existed.
func TestUnmarkedErrorStillFailsJob(t *testing.T) {
	cancel := faultinject.Set(faultinject.SiteJobsStep, func(ctx context.Context) error {
		if metaChunk(faultinject.Meta(ctx), 1) {
			return errors.New("plain unclassified failure")
		}
		return nil
	})
	defer cancel()

	m := newTestManager(t, fastRetry(t.TempDir()))
	v, err := m.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, m, v.ID)
	if fin.Status != StatusFailed || !strings.Contains(fin.Error, "plain unclassified failure") {
		t.Fatalf("status = %s (%s), want failed", fin.Status, fin.Error)
	}
	if fin.Quarantined != 0 {
		t.Fatalf("unmarked error quarantined %d chunks", fin.Quarantined)
	}
}

// TestRetriesExhaustedQuarantines: a chunk that keeps failing
// transiently past ChunkRetries is quarantined with an accurate attempt
// count (retries + 1).
func TestRetriesExhaustedQuarantines(t *testing.T) {
	cancel := faultinject.Set(faultinject.SiteJobsStep, func(ctx context.Context) error {
		if metaChunk(faultinject.Meta(ctx), 2) {
			return resilience.Transient(errors.New("never clears"))
		}
		return nil
	})
	defer cancel()

	m := newTestManager(t, fastRetry(t.TempDir())) // ChunkRetries = 2
	v, err := m.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, m, v.ID)
	if fin.Status != StatusCompletedPartial || fin.Quarantined != 1 {
		t.Fatalf("status = %s, quarantined = %d", fin.Status, fin.Quarantined)
	}
	if mf := fin.Manifest[0]; mf.Chunk != 2 || mf.Attempts != 3 {
		t.Fatalf("manifest entry = %+v, want chunk 2 after 3 attempts", mf)
	}
	if st := m.Stats(); st.ChunkRetries != 2 {
		t.Fatalf("ChunkRetries = %d, want 2", st.ChunkRetries)
	}
}

// TestRetryBudgetBoundsTotalRetries: with a one-token budget, a fault
// hitting every chunk gets exactly one retry across the whole job; the
// rest quarantine at their first failure.
func TestRetryBudgetBoundsTotalRetries(t *testing.T) {
	cancel := faultinject.Set(faultinject.SiteJobsStep, func(context.Context) error {
		return resilience.Transient(errors.New("systematic fault"))
	})
	defer cancel()

	cfg := fastRetry(t.TempDir())
	cfg.RetryBudget = 1
	m := newTestManager(t, cfg)
	v, err := m.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, m, v.ID)
	if fin.Status != StatusCompletedPartial || fin.Quarantined != 3 {
		t.Fatalf("status = %s, quarantined = %d, want all 3", fin.Status, fin.Quarantined)
	}
	if st := m.Stats(); st.ChunkRetries != 1 {
		t.Fatalf("ChunkRetries = %d, want 1 (budget)", st.ChunkRetries)
	}
	// Chunk 0 spent the token (2 attempts); chunks 1 and 2 quarantined
	// on their first failure.
	if fin.Manifest[0].Attempts != 2 || fin.Manifest[1].Attempts != 1 || fin.Manifest[2].Attempts != 1 {
		t.Fatalf("manifest = %+v", fin.Manifest)
	}
}

// TestStuckChunkWatchdogRetries: an attempt exceeding ChunkDeadline is
// cut by the watchdog, classified transient, and retried — the job
// still completes cleanly when the stall clears. The hook counts every
// chunk's attempts, so an unstalled chunk that a loaded host keeps past
// the deadline adds a retry the count accounts for, not a failure.
func TestStuckChunkWatchdogRetries(t *testing.T) {
	var mu sync.Mutex
	attempts := map[string]int{} // hook calls per chunk, one per attempt
	cancel := faultinject.Set(faultinject.SiteJobsStep, func(ctx context.Context) error {
		meta := faultinject.Meta(ctx)
		mu.Lock()
		attempts[meta]++
		n := attempts[meta]
		mu.Unlock()
		if metaChunk(meta, 1) && n == 1 {
			<-ctx.Done() // stall the first attempt until the watchdog fires
			return ctx.Err()
		}
		return nil
	})
	defer cancel()

	cfg := fastRetry(t.TempDir())
	cfg.ChunkDeadline = 100 * time.Millisecond
	m := newTestManager(t, cfg)
	v, err := m.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, m, v.ID)
	if fin.Status != StatusDone {
		t.Fatalf("status = %s (%s), want done", fin.Status, fin.Error)
	}
	mu.Lock()
	defer mu.Unlock()
	var retries uint64
	for meta, n := range attempts {
		retries += uint64(n - 1)
		if metaChunk(meta, 1) && n != 2 {
			t.Errorf("chunk 1 ran %d times, want 2 (the stalled attempt and one retry)", n)
		}
	}
	if n := attempts[v.ID+":1"]; n == 0 {
		t.Errorf("chunk 1 never ran; attempts %v", attempts)
	}
	if st := m.Stats(); st.ChunkRetries != retries {
		t.Fatalf("ChunkRetries = %d, want %d (the retries the hook saw, %v)", st.ChunkRetries, retries, attempts)
	}
}

// TestChunkRetrySiteAbortsRetry: an error hook at SiteJobsChunkRetry
// vetoes the scheduled retry — the chunk quarantines immediately.
func TestChunkRetrySiteAbortsRetry(t *testing.T) {
	cancelStep := faultinject.Set(faultinject.SiteJobsStep, func(ctx context.Context) error {
		if metaChunk(faultinject.Meta(ctx), 0) {
			return resilience.Transient(errors.New("transient but doomed"))
		}
		return nil
	})
	defer cancelStep()
	cancelRetry := faultinject.Set(faultinject.SiteJobsChunkRetry, func(context.Context) error {
		return errors.New("retry vetoed")
	})
	defer cancelRetry()

	m := newTestManager(t, fastRetry(t.TempDir()))
	v, err := m.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, m, v.ID)
	if fin.Status != StatusCompletedPartial || fin.Quarantined != 1 {
		t.Fatalf("status = %s, quarantined = %d", fin.Status, fin.Quarantined)
	}
	if mf := fin.Manifest[0]; mf.Chunk != 0 || mf.Attempts != 1 {
		t.Fatalf("manifest entry = %+v", mf)
	}
}

// TestQuarantineManifestSurvivesKill is the bit-identity acceptance for
// partial completion: a job with a poisoned chunk, killed mid-run after
// the quarantine is journaled, must resume and finish with result bytes
// — manifest included — identical to an uninterrupted partial run.
func TestQuarantineManifestSurvivesKill(t *testing.T) {
	poison := func(ctx context.Context) error {
		if metaChunk(faultinject.Meta(ctx), 0) {
			return resilience.Poison(errors.New("deterministic poison"))
		}
		return nil
	}

	// Reference: uninterrupted partial run.
	cancel := faultinject.Set(faultinject.SiteJobsStep, poison)
	ref := newTestManager(t, fastRetry(t.TempDir()))
	rv, err := ref.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitDone(t, ref, rv.ID); fin.Status != StatusCompletedPartial {
		t.Fatalf("reference run: %s (%s)", fin.Status, fin.Error)
	}
	want, err := ref.Result(rv.ID)
	if err != nil {
		t.Fatal(err)
	}
	cancel()

	// Faulted run: poison chunk 0, stall chunk 2 (after the quarantine
	// and chunk 1 are journaled), then kill.
	stalled := make(chan struct{})
	var once sync.Once
	cancel = faultinject.Set(faultinject.SiteJobsStep, func(ctx context.Context) error {
		meta := faultinject.Meta(ctx)
		if metaChunk(meta, 0) {
			return resilience.Poison(errors.New("deterministic poison"))
		}
		if metaChunk(meta, 2) {
			once.Do(func() { close(stalled) })
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	dir := t.TempDir()
	m, err := New(fastRetry(dir))
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-stalled:
	case <-time.After(time.Minute):
		t.Fatal("job never reached chunk 2")
	}
	m.Kill()
	cancel()

	// Resume without any faults: chunk 0's quarantine must come from the
	// journal, not be re-decided.
	m2 := newTestManager(t, fastRetry(dir))
	fin := waitDone(t, m2, v.ID)
	if fin.Status != StatusCompletedPartial {
		t.Fatalf("resumed run: %s (%s)", fin.Status, fin.Error)
	}
	if !fin.Resumed {
		t.Fatal("resumed job not marked Resumed")
	}
	got, err := m2.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed partial result differs:\n got %s\nwant %s", got, want)
	}
	if st := m2.Stats(); st.ChunksQuarantined != 0 {
		t.Fatalf("resume re-quarantined %d chunks; decisions must come from the journal", st.ChunksQuarantined)
	}
}

// TestJournalFailureDegrades: injected write failures flip the manager
// into degraded mode — jobs keep running and completing with in-memory
// checkpoints — and a later successful write recovers it.
func TestJournalFailureDegrades(t *testing.T) {
	var failing atomic.Bool
	cancel := faultinject.Set(faultinject.SiteJobsJournalWrite, func(context.Context) error {
		if failing.Load() {
			return errors.New("no space left on device")
		}
		return nil
	})
	defer cancel()

	cfg := fastRetry(t.TempDir())
	cfg.DegradedOK = true
	cfg.JournalReprobe = time.Hour // no probe noise mid-test
	m := newTestManager(t, cfg)

	failing.Store(true)
	v, err := m.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatalf("DegradedOK submit rejected: %v", err)
	}
	fin := waitDone(t, m, v.ID)
	if fin.Status != StatusDone {
		t.Fatalf("degraded job: %s (%s)", fin.Status, fin.Error)
	}
	st := m.Stats()
	if !st.JournalDegraded || st.DegradedEvents != 1 {
		t.Fatalf("degraded=%v events=%d, want degraded after write failures", st.JournalDegraded, st.DegradedEvents)
	}
	if st.DegradedSkips == 0 {
		t.Fatalf("no checkpoints were absorbed in-memory: %+v", st)
	}
	if _, err := m.Result(v.ID); err != nil {
		t.Fatalf("in-memory result unavailable: %v", err)
	}

	// Disk recovers: the next submit's journal write probes and clears
	// the flag.
	failing.Store(false)
	if _, err := m.Submit(sweepReq(LaneBulk)); err != nil {
		t.Fatal(err)
	}
	st = m.Stats()
	if st.JournalDegraded || st.JournalRecoveries != 1 {
		t.Fatalf("degraded=%v recoveries=%d after disk recovery", st.JournalDegraded, st.JournalRecoveries)
	}
}

// TestJournalReprobeWhileDegraded: while degraded, checkpoints probe
// the disk (once per JournalReprobe interval — here effectively every
// checkpoint) and the manager recovers the moment a probe succeeds.
func TestJournalReprobeWhileDegraded(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	cancel := faultinject.Set(faultinject.SiteJobsJournalWrite, func(context.Context) error {
		if failing.Load() {
			return errors.New("no space left on device")
		}
		return nil
	})
	defer cancel()

	cfg := fastRetry(t.TempDir())
	cfg.DegradedOK = true
	cfg.JournalReprobe = time.Nanosecond // probe on every checkpoint
	m := newTestManager(t, cfg)

	v, err := m.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitDone(t, m, v.ID); fin.Status != StatusDone {
		t.Fatalf("job: %s (%s)", fin.Status, fin.Error)
	}
	st := m.Stats()
	if st.DegradedEvents != 1 || !st.JournalDegraded {
		t.Fatalf("not degraded: %+v", st)
	}
	if st.JournalReprobes == 0 {
		t.Fatalf("checkpoints never probed the disk: %+v", st)
	}

	// Disk recovers: the next job's probes succeed and clear the flag.
	failing.Store(false)
	v2, err := m.Submit(sweepReq(LaneBulk))
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitDone(t, m, v2.ID); fin.Status != StatusDone {
		t.Fatalf("job 2: %s (%s)", fin.Status, fin.Error)
	}
	st = m.Stats()
	if st.JournalDegraded || st.JournalRecoveries != 1 {
		t.Fatalf("degraded=%v recoveries=%d after recovery", st.JournalDegraded, st.JournalRecoveries)
	}
}

// TestSubmitJournalFailureRejectedByDefault: without DegradedOK, a
// submit whose initial journal write fails is rejected — the client
// never holds an id that would not survive a crash.
func TestSubmitJournalFailureRejectedByDefault(t *testing.T) {
	cancel := faultinject.Set(faultinject.SiteJobsJournalWrite, func(context.Context) error {
		return errors.New("no space left on device")
	})
	defer cancel()

	m := newTestManager(t, fastRetry(t.TempDir()))
	if _, err := m.Submit(sweepReq(LaneBulk)); err == nil {
		t.Fatal("submit succeeded with a failing journal and DegradedOK=false")
	}
}

// TestTornJournalTailResumes: a crash mid-append leaves a torn final
// record. Boot must keep the records before it, cut the torn bytes off
// before anything is appended after them — so the next run's records
// are reachable — and the job must finish with result bytes identical
// to an uninterrupted run.
func TestTornJournalTailResumes(t *testing.T) {
	req := mcReq(3 * mcChunkSamples)

	clean := newTestManager(t, Config{Dir: t.TempDir()})
	cv, err := clean.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitDone(t, clean, cv.ID); fin.Status != StatusDone {
		t.Fatalf("clean run: %s", fin.Status)
	}
	want, err := clean.Result(cv.ID)
	if err != nil {
		t.Fatal(err)
	}

	// runUntilChunk2 boots a manager on dir, lets it journal everything
	// before chunk 2, stalls chunk 2, and kills it there.
	dir := t.TempDir()
	runUntilChunk2 := func(submit bool) (*Manager, string) {
		t.Helper()
		stalled := make(chan struct{})
		var once sync.Once
		cancel := faultinject.Set(faultinject.SiteJobsStep, func(ctx context.Context) error {
			if metaChunk(faultinject.Meta(ctx), 2) {
				once.Do(func() { close(stalled) })
				<-ctx.Done()
				return ctx.Err()
			}
			return nil
		})
		defer cancel()
		m, err := New(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		id := ""
		if submit {
			v, err := m.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			id = v.ID
		}
		select {
		case <-stalled:
		case <-time.After(time.Minute):
			t.Fatal("job never reached chunk 2")
		}
		m.Kill()
		return m, id
	}
	readJournal := func(path string) ([]byte, journalFile) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		jf, err := decodeJournal(data)
		if err != nil {
			t.Fatal(err)
		}
		return data, jf
	}

	_, id := runUntilChunk2(true)
	path := journalPath(dir, id)
	data, jf := readJournal(path)
	if jf.Valid != len(data) || bitCount(jf.Bitmap, jf.Chunks) != 2 {
		t.Fatalf("journal before the tear: %d/%d bytes, %d chunks", jf.Valid, len(data), bitCount(jf.Bitmap, jf.Chunks))
	}
	// Tear chunk 1's record, as a power cut mid-append would.
	torn := data[:len(data)-7]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	cut, err := decodeJournal(torn)
	if err != nil {
		t.Fatal(err)
	}
	if bitCount(cut.Bitmap, cut.Chunks) != 1 || !bitGet(cut.Bitmap, 0) {
		t.Fatalf("torn journal replays chunks %b, want chunk 0 alone", cut.Bitmap[0])
	}

	// Second run: boot cuts the tail, reruns chunk 1 and appends it where
	// the torn record began, then stalls at chunk 2 again.
	m2, _ := runUntilChunk2(false)
	if st := m2.Stats(); st.TornRecoveredBoot != 1 || st.CorruptBoot != 0 || st.ResumedBoot != 1 {
		t.Fatalf("boot stats: torn %d, corrupt %d, resumed %d; want 1, 0, 1",
			st.TornRecoveredBoot, st.CorruptBoot, st.ResumedBoot)
	}
	data, jf = readJournal(path)
	if jf.Valid != len(data) || bitCount(jf.Bitmap, jf.Chunks) != 2 {
		t.Fatalf("journal after the cut and an append: %d/%d bytes replayed, %d chunks",
			jf.Valid, len(data), bitCount(jf.Bitmap, jf.Chunks))
	}

	m3 := newTestManager(t, Config{Dir: dir})
	fin := waitDone(t, m3, id)
	if fin.Status != StatusDone {
		t.Fatalf("resumed run: %s (%s)", fin.Status, fin.Error)
	}
	got, err := m3.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("torn-journal resume produced different result bytes")
	}
	if st := m3.Stats(); st.TornRecoveredBoot != 0 || st.ChunksRun != 1 {
		t.Fatalf("final run: torn %d, ran %d chunks; want 0, 1 (chunk 2 alone)", st.TornRecoveredBoot, st.ChunksRun)
	}
}

// TestFailedAppendNeverStrandsRecords: an append that fails after part
// of its bytes reached the file (ENOSPC mid-write) must not leave later
// records behind bytes replay stops at. The next write rewrites the
// journal, so a crash after it replays every chunk that write covered,
// and the resumed result is byte-identical to an uninterrupted run.
func TestFailedAppendNeverStrandsRecords(t *testing.T) {
	req := mcReq(4 * mcChunkSamples)
	clean := newTestManager(t, Config{Dir: t.TempDir()})
	cv, err := clean.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitDone(t, clean, cv.ID); fin.Status != StatusDone {
		t.Fatalf("clean run: %s", fin.Status)
	}
	want, err := clean.Result(cv.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Journal writes: 1 the submit header, 2 chunk 0's append, 3 chunk
	// 1's append — which leaves a partial record on disk and fails.
	dir := t.TempDir()
	var writes atomic.Int64
	cancelWrite := faultinject.Set(faultinject.SiteJobsJournalWrite, func(ctx context.Context) error {
		if writes.Add(1) != 3 {
			return nil
		}
		f, err := os.OpenFile(journalPath(dir, faultinject.Meta(ctx)), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return err
		}
		defer f.Close()
		if _, err := f.Write(appendRecord(nil, recChunk, 1, []byte("partial"))[:9]); err != nil {
			return err
		}
		return errors.New("no space left on device")
	})
	defer cancelWrite()
	stalled := make(chan struct{})
	var once sync.Once
	cancelStep := faultinject.Set(faultinject.SiteJobsStep, func(ctx context.Context) error {
		if metaChunk(faultinject.Meta(ctx), 3) {
			once.Do(func() { close(stalled) })
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	})
	cfg := Config{Dir: dir, JournalReprobe: time.Nanosecond} // chunk 2's checkpoint probes
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-stalled:
	case <-time.After(time.Minute):
		t.Fatal("job never reached chunk 3")
	}
	m.Kill()
	cancelStep()
	cancelWrite()
	if st := m.Stats(); st.CheckpointErrors != 1 || st.JournalRecoveries != 1 {
		t.Fatalf("checkpoint errors %d, recoveries %d; want 1, 1", st.CheckpointErrors, st.JournalRecoveries)
	}

	data, err := os.ReadFile(journalPath(dir, v.ID))
	if err != nil {
		t.Fatal(err)
	}
	jf, err := decodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if jf.Valid != len(data) || jf.Bitmap[0] != 0b111 {
		t.Fatalf("journal after the failed append: %d/%d bytes replayed, chunks %b; want all, 0b111",
			jf.Valid, len(data), jf.Bitmap[0])
	}

	m2 := newTestManager(t, Config{Dir: dir})
	fin := waitDone(t, m2, v.ID)
	if fin.Status != StatusDone {
		t.Fatalf("resumed run: %s (%s)", fin.Status, fin.Error)
	}
	got, err := m2.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resume after a failed append produced different result bytes")
	}
	if st := m2.Stats(); st.ChunksRun != 1 {
		t.Fatalf("resume ran %d chunks, want 1 (chunk 3 alone)", st.ChunksRun)
	}
}
