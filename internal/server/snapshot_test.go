package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dsmtherm/internal/core"
	"dsmtherm/internal/rules"
)

func TestSnapshotCodecRoundTrip(t *testing.T) {
	entries := []snapEntry{
		{Key: "solve|4:0.25||0|5", Kind: snapKindSolve,
			Solve: core.Solution{Tm: 390.5, DeltaT: 12.25, Jpeak: 1.6e10, Jrms: 6e9, Javg: 1.8e9, EMOnlyJpeak: 2e10, DeratingVsNaive: 0.8}},
		{Key: "rule|4:0.25||0|5", Kind: snapKindRule,
			Rule: rules.LevelRule{Level: 5, SignalJpeak: 1.6e10, SignalTm: 390.5, HealingLength: 4.3e-5}},
	}
	data, err := encodeSnapshot(entries)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(sf.Entries) != len(entries) {
		t.Fatalf("round trip lost entries: %d, want %d", len(sf.Entries), len(entries))
	}
	for i, e := range sf.Entries {
		if e != entries[i] {
			t.Errorf("entry %d mutated:\n got %+v\nwant %+v", i, e, entries[i])
		}
	}
}

// TestSnapshotCodecRejectsCorruption walks the corruption taxonomy: every
// kind of damage must produce ErrSnapshotCorrupt (or at least an error),
// never a panic and never silently-wrong data.
func TestSnapshotCodecRejectsCorruption(t *testing.T) {
	good, err := encodeSnapshot([]snapEntry{{Key: "k", Kind: snapKindSolve, Solve: core.Solution{Tm: 400}}})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(fn func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return fn(b)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"shortHeader", good[:10]},
		{"truncatedPayload", good[:len(good)-3]},
		{"badMagic", mutate(func(b []byte) []byte { b[0] = 'X'; return b })},
		{"badVersion", mutate(func(b []byte) []byte { b[11] = 99; return b })},
		{"hugeLength", mutate(func(b []byte) []byte { b[12] = 0xFF; return b })},
		{"payloadBitFlip", mutate(func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b })},
		{"checksumBitFlip", mutate(func(b []byte) []byte { b[21] ^= 0x01; return b })},
		{"trailingGarbage", append(append([]byte(nil), good...), 0xDE, 0xAD)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeSnapshot(tc.data); !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("decode(%s) = %v, want ErrSnapshotCorrupt", tc.name, err)
			}
		})
	}
}

// snapWorkload is the restart test's working set: distinct rules
// queries that each populate one solve entry and (per level) one rule
// entry.
func snapWorkload() []string {
	out := make([]string, 0, 10)
	for i := 0; i < 10; i++ {
		out = append(out, fmt.Sprintf(
			`{"node":"0.25","level":%d,"dutyCycle":%.2f,"j0MA":1.8}`, 1+i%5, 0.1+float64(i)*0.05))
	}
	return out
}

// TestSnapshotWarmRestart is the acceptance check: populate a daemon,
// snapshot, boot a second daemon from the file, and verify the prior
// working set is served as cache hits on the first wave — zero solves,
// every query answered from the restored cache.
func TestSnapshotWarmRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")

	// First life: populate and snapshot.
	s1 := New(Config{Workers: 4, CacheEntries: 256, SnapshotPath: path})
	waitLoaded(t, s1)
	ts1 := httptest.NewServer(s1.Handler())
	for _, body := range snapWorkload() {
		if status, b := postJSON(t, ts1.URL+"/v1/rules", body); status != http.StatusOK {
			t.Fatalf("populate: %d %s", status, b)
		}
	}
	solves1 := s1.metrics.Solves.Load()
	if solves1 == 0 {
		t.Fatal("workload performed no solves; test is vacuous")
	}
	if err := s1.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if s1.metrics.SnapshotSaves.Load() == 0 {
		t.Fatal("SnapshotSaves did not advance")
	}

	// Second life: boot from the snapshot, replay the same working set.
	s2 := New(Config{Workers: 4, CacheEntries: 256, SnapshotPath: path})
	waitLoaded(t, s2)
	if got := s2.metrics.SnapshotLoaded.Load(); got == 0 {
		t.Fatal("no entries restored from snapshot")
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	for _, body := range snapWorkload() {
		status, b := postJSON(t, ts2.URL+"/v1/rules", body)
		if status != http.StatusOK {
			t.Fatalf("replay: %d %s", status, b)
		}
		var rr RulesResponse
		if err := json.Unmarshal(b, &rr); err != nil {
			t.Fatal(err)
		}
		if !rr.Cached {
			t.Errorf("replayed query missed the restored cache: %s", body)
		}
	}

	// ≥90% of the prior working set served warm; here the bar is 100%:
	// no solves, no deck rebuilds, every hit from the restored entries.
	var snap Snapshot
	if status := getJSON(t, ts2.URL+"/metrics", &snap); status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	if snap.Solver.Solves != 0 {
		t.Errorf("warm restart re-solved %d times, want 0 (restored set covers the workload)", snap.Solver.Solves)
	}
	if snap.Solver.DecksBuilt != 0 {
		t.Errorf("warm restart rebuilt %d deck rows, want 0", snap.Solver.DecksBuilt)
	}
	want := uint64(len(snapWorkload()))
	if snap.Solver.CacheHits < want {
		t.Errorf("solve cache hits = %d, want >= %d (one per replayed query)", snap.Solver.CacheHits, want)
	}

	// Restored results match freshly-computed physics: a third, cold
	// daemon must agree bit-for-bit with the warm one.
	s3 := New(Config{Workers: 4, CacheEntries: 256})
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	for _, body := range snapWorkload() {
		_, warm := postJSON(t, ts2.URL+"/v1/rules", body)
		_, cold := postJSON(t, ts3.URL+"/v1/rules", body)
		if normalizeBody(t, warm) != normalizeBody(t, cold) {
			t.Errorf("restored physics diverges from recomputed:\nwarm: %s\ncold: %s", warm, cold)
		}
	}
}

// TestSnapshotCorruptFileStartsCold pins the tolerance contract: a
// truncated or bit-flipped snapshot logs, counts a load failure, and
// starts the daemon cold — it never refuses to serve.
func TestSnapshotCorruptFileStartsCold(t *testing.T) {
	dir := t.TempDir()
	good, err := encodeSnapshot([]snapEntry{{Key: "k", Kind: snapKindSolve, Solve: core.Solution{Tm: 400}}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"truncated", good[:len(good)-4]},
		{"bitFlipped", func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-1] ^= 0x10
			return b
		}()},
		{"garbage", []byte("not a snapshot at all")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".snap")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			s := New(Config{Workers: 2, CacheEntries: 64, SnapshotPath: path})
			waitLoaded(t, s)
			if got := s.metrics.SnapshotLoadFailures.Load(); got != 1 {
				t.Errorf("SnapshotLoadFailures = %d, want 1", got)
			}
			if got := s.metrics.SnapshotLoaded.Load(); got != 0 {
				t.Errorf("corrupt snapshot restored %d entries, want 0", got)
			}
			// Cold but alive.
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			if status, b := postJSON(t, ts.URL+"/v1/rules",
				`{"node":"0.25","level":5,"dutyCycle":0.1,"j0MA":1.8}`); status != http.StatusOK {
				t.Fatalf("cold-start daemon cannot serve: %d %s", status, b)
			}
		})
	}
}

// TestSnapshotMissingFileIsColdNotFailure pins that first boot (no file
// yet) is not an error condition.
func TestSnapshotMissingFileIsColdNotFailure(t *testing.T) {
	s := New(Config{Workers: 2, CacheEntries: 64,
		SnapshotPath: filepath.Join(t.TempDir(), "never-written.snap")})
	waitLoaded(t, s)
	if got := s.metrics.SnapshotLoadFailures.Load(); got != 0 {
		t.Errorf("missing file counted as load failure: %d", got)
	}
}

// TestSnapshotSkipsErrorsAndDecks pins the persistence policy: error
// outcomes and deck values never reach the file.
func TestSnapshotSkipsErrorsAndDecks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	s := New(Config{Workers: 2, CacheEntries: 64, SnapshotPath: path})
	waitLoaded(t, s)
	s.Cache().Add("good", outcome[core.Solution]{v: core.Solution{Tm: 400}})
	s.Cache().Add("doomed", outcome[core.Solution]{err: core.ErrNoSolution})
	s.Cache().Add("deck", outcome[*rules.Deck]{v: &rules.Deck{}})
	if err := s.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	if got := s.metrics.SnapshotSkipped.Load(); got != 2 {
		t.Errorf("SnapshotSkipped = %d, want 2 (error outcome + deck)", got)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sf, err := readSnapshotFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(sf.Entries) != 1 || sf.Entries[0].Key != "good" {
		t.Errorf("snapshot holds %+v, want only the good solve", sf.Entries)
	}
}

// TestSnapshotAtomicOverwrite verifies a save replaces the previous file
// atomically (no temp files left behind) and the new content wins.
func TestSnapshotAtomicOverwrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.snap")
	s := New(Config{Workers: 2, CacheEntries: 64, SnapshotPath: path})
	waitLoaded(t, s)
	s.Cache().Add("a", outcome[core.Solution]{v: core.Solution{Tm: 1}})
	if err := s.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	s.Cache().Add("b", outcome[core.Solution]{v: core.Solution{Tm: 2}})
	if err := s.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "cache.snap" {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only cache.snap (temp files must not leak)", names)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := decodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(sf.Entries) != 2 {
		t.Errorf("second save holds %d entries, want 2", len(sf.Entries))
	}
}

// waitLoaded blocks until the boot-time snapshot restore finishes.
func waitLoaded(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.loading.Load() {
		if time.Now().After(deadline) {
			t.Fatal("snapshot load never finished")
		}
		time.Sleep(time.Millisecond)
	}
}

// FuzzSnapshotCodec locks the decoder's safety contract on arbitrary
// bytes: it returns data or an error, it never panics (the recovery
// boundary converts a hypothetical gob panic into an error), and
// anything it does accept re-encodes losslessly.
func FuzzSnapshotCodec(f *testing.F) {
	good, err := encodeSnapshot([]snapEntry{
		{Key: "solve|4:0.25||0|5", Kind: snapKindSolve, Solve: core.Solution{Tm: 390, Jpeak: 1.6e10}},
		{Key: "rule|4:0.25||0|5", Kind: snapKindRule, Rule: rules.LevelRule{Level: 5}},
	})
	if err != nil {
		f.Fatal(err)
	}
	empty, err := encodeSnapshot(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(empty)
	f.Add([]byte{})
	f.Add(good[:12])
	f.Add(append(append([]byte(nil), good...), 1, 2, 3))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := decodeSnapshot(data) // must not panic
		if err != nil {
			return
		}
		// Accepted input round-trips: re-encode and decode to the same
		// entries (gob is not canonical byte-for-byte, so compare values).
		re, err := encodeSnapshot(sf.Entries)
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		sf2, err := decodeSnapshot(re)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if len(sf2.Entries) != len(sf.Entries) {
			t.Fatalf("round trip changed entry count: %d -> %d", len(sf.Entries), len(sf2.Entries))
		}
		for i := range sf.Entries {
			if sf.Entries[i] != sf2.Entries[i] {
				t.Fatalf("round trip mutated entry %d", i)
			}
		}
	})
}
