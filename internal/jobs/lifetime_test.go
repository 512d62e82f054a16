package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"

	"dsmtherm/internal/faultinject"
	"dsmtherm/internal/lifetime"
	"dsmtherm/internal/mathx"
)

// lifetimeReq builds a 2-class statistical-lifetime job request.
func lifetimeReq(samples int) SubmitRequest {
	return SubmitRequest{
		Type: TypeLifetime,
		Lifetime: &lifetime.Params{
			Segments: []lifetime.SegmentSpec{
				{Count: 500000, TempC: 105, JMA: 0.4},
				{Count: 20000, TempC: 135, JMA: 1.1},
			},
			Samples: samples,
			Seed:    11,
			Rho:     0.2,
		},
	}
}

// lifetimeChunk is the chunk size of lifetimeReq's census, which
// depends on its class count alone.
func lifetimeChunk(tb testing.TB) int {
	tb.Helper()
	m, err := lifetime.Compile(*lifetimeReq(lifetime.DefaultSamples).Lifetime)
	if err != nil {
		tb.Fatal(err)
	}
	return m.ChunkSamples()
}

func TestLifetimeJobLifecycle(t *testing.T) {
	n := lifetimeChunk(t)
	m := newTestManager(t, Config{})
	v, err := m.Submit(lifetimeReq(3*n + 100))
	if err != nil {
		t.Fatal(err)
	}
	if v.Chunks != 4 {
		t.Fatalf("chunks = %d, want 4", v.Chunks)
	}
	fin := waitDone(t, m, v.ID)
	if fin.Status != StatusDone {
		t.Fatalf("job: %s (%q)", fin.Status, fin.Error)
	}
	res, err := m.Result(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	var rep lifetime.Report
	if err := json.Unmarshal(res, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Samples != 3*n+100 || rep.Classes != 2 || rep.Segments != 520000 {
		t.Fatalf("report census: %+v", rep)
	}
	if len(rep.Quantiles) != 3 || !(rep.MinYears < rep.MedianYears && rep.MedianYears < rep.MaxYears) {
		t.Fatalf("report summary: %+v", rep)
	}
}

func TestLifetimeJobValidation(t *testing.T) {
	m := newTestManager(t, Config{})
	bad := lifetimeReq(20000)
	bad.Lifetime.Segments = nil
	if _, err := m.Submit(bad); err == nil {
		t.Error("empty census must be rejected at submit")
	}
	// Unknown params fields are a client error, same as every runner.
	raw := SubmitRequest{Type: TypeLifetime, Lifetime: &lifetime.Params{}}
	if _, err := m.Submit(raw); err == nil {
		t.Error("empty lifetime params must be rejected")
	}
}

// TestLifetimeCrashResumeBitIdentical extends the tentpole crash-resume
// invariant to sketch-state chunk blobs: kill mid-job after two chunks
// journal, restart on the same dir, and the finished report must be
// byte-identical to an uninterrupted run — sketch merging across the
// crash boundary reconstructs the exact serial state.
func TestLifetimeCrashResumeBitIdentical(t *testing.T) {
	n := lifetimeChunk(t)
	req := lifetimeReq(3*n + 100) // 4 chunks

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

	// The journaled chunk blobs must be valid canonical sketch states.
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
	for c, blob := range jf.ChunkData {
		if len(blob) == 0 {
			continue
		}
		sk, err := mathx.DecodeQuantileSketch(blob)
		if err != nil {
			t.Fatalf("journaled chunk %d blob: %v", c, err)
		}
		if sk.Count() != uint64(n) {
			t.Fatalf("journaled chunk %d holds %d samples", c, sk.Count())
		}
	}

	// Restart: resume and finish with the same bytes.
	m2 := newTestManager(t, Config{Dir: dir})
	if st := m2.Stats(); st.ResumedBoot != 1 || st.CorruptBoot != 0 {
		t.Fatalf("boot stats = %+v, want 1 resumed, 0 corrupt", st)
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

// BenchmarkLifetimeSketch measures the streaming lifetime pipeline at
// chunk granularity: sample one work-sized chunk (ChunkSamples, 131072
// samples for this 2-class census) into a sketch, encode it, decode it,
// and merge it — the full journal round trip one chunk costs.
func BenchmarkLifetimeSketch(b *testing.B) {
	task, err := newTask(TypeLifetime, mustJSON(b, lifetimeReq(4*lifetimeChunk(b)).Lifetime))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blob, err := task.Run(ctx, i%4)
		if err != nil {
			b.Fatal(err)
		}
		sk, err := mathx.DecodeQuantileSketch(blob)
		if err != nil {
			b.Fatal(err)
		}
		total := lifetime.NewSketch()
		if err := total.Merge(sk); err != nil {
			b.Fatal(err)
		}
	}
}

func mustJSON(b *testing.B, v any) json.RawMessage {
	b.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	return data
}
