package jobs

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dsmtherm/internal/snapcodec"
)

func testJournal() *journalFile {
	params := []byte(`{"level":4,"points":40}`)
	jf := &journalFile{
		journalHeader: journalHeader{
			ID: "jcafef00dcafef00", Type: TypeSweep, Lane: LaneInteractive,
			Params: params, ParamsSum: paramsSum(params),
			Deadline:  15 * time.Minute,
			Submitted: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
			Status:    StatusQueued,
			Chunks:    3,
			Bitmap:    make([]uint64, 1),
		},
		ChunkData: make([][]byte, 3),
	}
	bitSet(jf.Bitmap, 0)
	bitSet(jf.Bitmap, 2)
	jf.ChunkData[0] = []byte("blob zero")
	jf.ChunkData[2] = []byte("blob two")
	return jf
}

func TestJournalRoundTrip(t *testing.T) {
	jf := testJournal()
	data, err := encodeJournal(jf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Valid != len(data) {
		t.Fatalf("replayed %d of %d bytes", got.Valid, len(data))
	}
	if got.ID != jf.ID || got.Type != jf.Type || got.Lane != jf.Lane ||
		got.Status != jf.Status || got.Chunks != jf.Chunks ||
		got.Deadline != jf.Deadline || !got.Submitted.Equal(jf.Submitted) {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Params, jf.Params) {
		t.Fatal("params mismatch")
	}
	if bitCount(got.Bitmap, got.Chunks) != 2 || !bitGet(got.Bitmap, 0) || bitGet(got.Bitmap, 1) {
		t.Fatalf("bitmap mismatch: %v", got.Bitmap)
	}
	if !bytes.Equal(got.ChunkData[0], jf.ChunkData[0]) || got.ChunkData[1] != nil ||
		!bytes.Equal(got.ChunkData[2], jf.ChunkData[2]) {
		t.Fatal("chunk data mismatch")
	}

	// A terminal journal compacts to its header: outcome, bitmap and
	// manifest survive, chunk blobs do not.
	jf.Status = StatusCompletedPartial
	jf.Result = []byte(`{"status":"completed_partial"}`)
	jf.ErrMsg = "1/3 chunks quarantined"
	jf.Manifest = EncodeManifest([]ChunkFailure{{Chunk: 1, Attempts: 2, Error: "poison"}})
	data, err = encodeJournal(jf)
	if err != nil {
		t.Fatal(err)
	}
	got, err = decodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Valid != len(data) || got.ChunkData != nil {
		t.Fatalf("terminal journal: valid %d of %d bytes, %d blobs", got.Valid, len(data), len(got.ChunkData))
	}
	if got.Status != StatusCompletedPartial || got.ErrMsg != jf.ErrMsg ||
		!bytes.Equal(got.Result, jf.Result) || !bytes.Equal(got.Manifest, jf.Manifest) ||
		got.Bitmap[0] != jf.Bitmap[0] {
		t.Fatalf("terminal outcome mismatch: %+v", got.journalHeader)
	}
	if bytes.Contains(data, []byte("blob zero")) {
		t.Fatal("terminal journal still carries a chunk blob")
	}
}

// v1Journal is the whole-file gob payload of journal format version 1:
// every chunk blob rewritten into one frame at each checkpoint.
type v1Journal struct {
	ID        string
	Type      string
	Lane      Lane
	Params    []byte
	ParamsSum [32]byte
	Deadline  time.Duration
	Submitted time.Time
	Status    Status
	Chunks    int
	Bitmap    []uint64
	ChunkData [][]byte
	Manifest  []byte
	Result    []byte
	ErrMsg    string
}

func TestJournalDecodeRejectsCorruption(t *testing.T) {
	jf := testJournal()
	good, err := encodeJournal(jf)
	if err != nil {
		t.Fatal(err)
	}
	hdr := headerLen(t, jf)
	cases := map[string][]byte{
		"empty":      {},
		"garbage":    []byte("twelve bytes"),
		"header cut": good[:hdr-1],
		"header flip": func() []byte {
			b := append([]byte(nil), good...)
			b[hdr-1] ^= 0x01
			return b
		}(),
		"wrong magic": func() []byte {
			b := append([]byte(nil), good...)
			copy(b, "DSMSNAP1") // the server snapshot magic: framed, but not a journal
			return b
		}(),
		"format version 1": v1Frame(t, jf),
	}
	for name, data := range cases {
		if _, err := decodeJournal(data); !errors.Is(err, ErrJournalCorrupt) {
			t.Errorf("%s: err = %v, want ErrJournalCorrupt", name, err)
		}
	}
}

// headerLen is the byte length of jf's header frame.
func headerLen(t *testing.T, jf *journalFile) int {
	t.Helper()
	h := jf.journalHeader
	if !h.Status.Terminal() {
		h.Bitmap, h.Manifest = nil, nil
	}
	hdr, err := encodeHeader(&h)
	if err != nil {
		t.Fatal(err)
	}
	return len(hdr)
}

// v1Frame renders jf the way format version 1 did.
func v1Frame(t *testing.T, jf *journalFile) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&v1Journal{
		ID: jf.ID, Type: jf.Type, Lane: jf.Lane, Params: jf.Params, ParamsSum: jf.ParamsSum,
		Deadline: jf.Deadline, Submitted: jf.Submitted, Status: jf.Status, Chunks: jf.Chunks,
		Bitmap: jf.Bitmap, ChunkData: jf.ChunkData, Manifest: jf.Manifest,
	}); err != nil {
		t.Fatal(err)
	}
	return snapcodec.Frame(journalMagic, 1, payload.Bytes())
}

// TestJournalConsistencyChecks: headers that decode as gob but violate
// the journal invariants must be rejected, not trusted; records that
// frame correctly but break the record invariants must end the replay.
func TestJournalConsistencyChecks(t *testing.T) {
	base := testJournal().journalHeader
	base.Bitmap = nil
	mutations := map[string]func(*journalHeader){
		"missing id":      func(h *journalHeader) { h.ID = "" },
		"missing type":    func(h *journalHeader) { h.Type = "" },
		"negative chunks": func(h *journalHeader) { h.Chunks = -1 },
		"absurd chunks":   func(h *journalHeader) { h.Chunks = 1 << 21 },
		"params hash":     func(h *journalHeader) { h.Params = []byte(`{"level":5,"points":40}`) },
		"bogus status":    func(h *journalHeader) { h.Status = "paused" },
		"live bitmap":     func(h *journalHeader) { h.Bitmap = []uint64{1} },
		"live manifest": func(h *journalHeader) {
			h.Manifest = EncodeManifest([]ChunkFailure{{Chunk: 1, Attempts: 1, Error: "x"}})
		},
		"terminal bitmap sizing": func(h *journalHeader) { h.Status, h.Bitmap = StatusDone, make([]uint64, 9) },
		"terminal bad manifest": func(h *journalHeader) {
			h.Status, h.Bitmap, h.Manifest = StatusFailed, make([]uint64, 1), []byte{1, 2}
		},
		"completed and quarantined": func(h *journalHeader) {
			h.Status, h.Bitmap = StatusCompletedPartial, []uint64{0b1}
			h.Manifest = EncodeManifest([]ChunkFailure{{Chunk: 0, Attempts: 1, Error: "x"}})
		},
		"partial without manifest": func(h *journalHeader) {
			h.Status, h.Bitmap = StatusCompletedPartial, make([]uint64, 1)
		},
	}
	for name, mutate := range mutations {
		h := base
		mutate(&h)
		data, err := encodeHeader(&h)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if _, err := decodeJournal(data); !errors.Is(err, ErrJournalCorrupt) {
			t.Errorf("%s: err = %v, want ErrJournalCorrupt", name, err)
		}
	}

	prefix, err := encodeHeader(&base)
	if err != nil {
		t.Fatal(err)
	}
	prefix = appendRecord(prefix, recChunk, 1, []byte("blob one"))
	quarantine := func(attempts uint32, msg string) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, attempts), msg...)
	}
	bad := map[string][]byte{
		"chunk out of range":  appendRecord(nil, recChunk, 3, []byte("x")),
		"repeated chunk":      appendRecord(nil, recChunk, 1, []byte("blob one")),
		"descending chunk":    appendRecord(nil, recChunk, 0, []byte("x")),
		"unknown kind":        appendRecord(nil, 9, 2, []byte("x")),
		"zero attempts":       appendRecord(nil, recQuarantine, 2, quarantine(0, "x")),
		"short quarantine":    appendRecord(nil, recQuarantine, 2, []byte{1, 0}),
		"oversized message":   appendRecord(nil, recQuarantine, 2, quarantine(1, string(make([]byte, manifestMaxError+1)))),
		"quarantine repeated": appendRecord(nil, recQuarantine, 1, quarantine(1, "x")),
	}
	for name, rec := range bad {
		data := append(append([]byte(nil), prefix...), rec...)
		jf, err := decodeJournal(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if jf.Valid != len(prefix) {
			t.Errorf("%s: replay accepted %d bytes, want %d (the bad record rejected)", name, jf.Valid, len(prefix))
		}
		if jf.Bitmap[0] != 0b10 || len(jf.Manifest) != 0 || !bytes.Equal(jf.ChunkData[1], []byte("blob one")) {
			t.Errorf("%s: replayed state bitmap %b manifest %q", name, jf.Bitmap[0], jf.Manifest)
		}
	}
}

// prefixJournal is a live journal with five records — chunks 0 and 1, a
// quarantine of chunk 2, chunks 3 and 4 — plus the byte offset at which
// each record ends.
func prefixJournal(t *testing.T) (jf *journalFile, data []byte, fails []ChunkFailure, ends []int) {
	t.Helper()
	params := []byte(`{"samples":160,"seed":7}`)
	fails = []ChunkFailure{{Chunk: 2, Attempts: 4, Error: "injected poison"}}
	jf = &journalFile{
		journalHeader: journalHeader{
			ID: "jprefix", Type: TypeMonteCarlo, Lane: LaneBulk,
			Params: params, ParamsSum: paramsSum(params),
			Submitted: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
			Status:    StatusQueued, Chunks: 6,
			Bitmap:   make([]uint64, 1),
			Manifest: EncodeManifest(fails),
		},
		ChunkData: make([][]byte, 6),
	}
	end := headerLen(t, jf)
	for c := 0; c < 5; c++ {
		size := recordOverhead + 4 + len(fails[0].Error)
		if c != 2 {
			bitSet(jf.Bitmap, c)
			jf.ChunkData[c] = bytes.Repeat([]byte{byte('a' + c)}, 40+c)
			size = recordOverhead + len(jf.ChunkData[c])
		}
		end += size
		ends = append(ends, end)
	}
	data, err := encodeJournal(jf)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != ends[4] {
		t.Fatalf("journal is %d bytes, records end at %d", len(data), ends[4])
	}
	return jf, data, fails, ends
}

// checkFirstRecords asserts got replayed exactly the first k records of
// prefixJournal's journal, byte for byte.
func checkFirstRecords(t *testing.T, got, want *journalFile, fails []ChunkFailure, k int) {
	t.Helper()
	for c := 0; c < want.Chunks; c++ {
		inPrefix := c < k && c != 2
		if bitGet(got.Bitmap, c) != inPrefix {
			t.Fatalf("%d records: chunk %d completed = %v", k, c, !inPrefix)
		}
		if inPrefix && !bytes.Equal(got.ChunkData[c], want.ChunkData[c]) {
			t.Fatalf("%d records: chunk %d bytes differ from what was written", k, c)
		}
		if !inPrefix && got.ChunkData[c] != nil {
			t.Fatalf("%d records: blob for chunk %d", k, c)
		}
	}
	var wantManifest []byte
	if k > 2 {
		wantManifest = EncodeManifest(fails)
	}
	if !bytes.Equal(got.Manifest, wantManifest) {
		t.Fatalf("%d records: manifest %q, want %q", k, got.Manifest, wantManifest)
	}
}

// TestJournalEveryPrefixReplays: every strict prefix of a journal — a
// crash can leave any of them — either decodes as corrupt because the
// header itself is cut, or replays to exactly the state at its last
// whole record. No prefix panics or yields a chunk whose bytes differ
// from what was written.
func TestJournalEveryPrefixReplays(t *testing.T) {
	jf, data, fails, ends := prefixJournal(t)
	hdr := headerLen(t, jf)
	for n := 0; n < len(data); n++ {
		got, err := decodeJournal(data[:n])
		if n < hdr {
			if !errors.Is(err, ErrJournalCorrupt) {
				t.Fatalf("prefix %d/%d (header cut): err = %v, want ErrJournalCorrupt", n, len(data), err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("prefix %d/%d: %v", n, len(data), err)
		}
		k, valid := 0, hdr
		for k < len(ends) && ends[k] <= n {
			valid = ends[k]
			k++
		}
		if got.Valid != valid {
			t.Fatalf("prefix %d/%d: valid %d, want %d", n, len(data), got.Valid, valid)
		}
		checkFirstRecords(t, &got, jf, fails, k)
	}
}

// TestJournalBitflipKeepsEarlierRecords: a flipped byte anywhere in
// record k ends the replay there — records before k survive intact, and
// neither record k nor any after it is trusted.
func TestJournalBitflipKeepsEarlierRecords(t *testing.T) {
	jf, data, fails, ends := prefixJournal(t)
	start := headerLen(t, jf)
	for k, end := range ends {
		for i := start; i < end; i++ {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0xFF
			got, err := decodeJournal(bad)
			if err != nil {
				t.Fatalf("flip at %d (record %d): %v", i, k, err)
			}
			if got.Valid != start {
				t.Fatalf("flip at %d (record %d): valid %d, want %d", i, k, got.Valid, start)
			}
			checkFirstRecords(t, &got, jf, fails, k)
		}
		start = end
	}
}

func TestScanJournalsOrdersBySubmitTime(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2026, 8, 8, 9, 0, 0, 0, time.UTC)
	// Write in reverse submit order to prove the sort.
	for i, id := range []string{"jccc", "jbbb", "jaaa"} {
		jf := testJournal()
		jf.ID = id
		jf.Submitted = base.Add(time.Duration(2-i) * time.Hour)
		data, err := encodeJournal(jf)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(journalPath(dir, id), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, err := scanJournals(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.files) != 3 || res.corrupted != 0 || res.tornTails != 0 {
		t.Fatalf("scan = %d files, %d corrupt, %d torn", len(res.files), res.corrupted, res.tornTails)
	}
	for i, want := range []string{"jaaa", "jbbb", "jccc"} {
		if res.files[i].ID != want {
			t.Fatalf("order[%d] = %s, want %s", i, res.files[i].ID, want)
		}
	}
	// A journal whose filename disagrees with its recorded ID is
	// quarantined (a copied or renamed file must not resurrect a job
	// under the wrong id).
	src, _ := os.ReadFile(journalPath(dir, "jaaa"))
	if err := os.WriteFile(journalPath(dir, "jstolen"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = scanJournals(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.corrupted != 1 || len(res.files) != 3 {
		t.Fatalf("after id-mismatch file: %d files, %d corrupt", len(res.files), res.corrupted)
	}
	if _, err := os.Stat(filepath.Join(dir, "jstolen.job.corrupt")); err != nil {
		t.Fatal(err)
	}
	// A torn tail is cut back to the last whole record on disk, so the
	// next append lands right after it.
	path := journalPath(dir, "jbbb")
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(whole[:len(whole):len(whole)], recChunk, 1, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = scanJournals(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.tornTails != 1 || res.corrupted != 0 || len(res.files) != 3 {
		t.Fatalf("after torn tail: %d files, %d corrupt, %d torn", len(res.files), res.corrupted, res.tornTails)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != int64(len(whole)) {
		t.Fatalf("torn tail not cut: %v, %d bytes, want %d", err, st.Size(), len(whole))
	}
	if jf := res.files[1]; jf.ID != "jbbb" || jf.Valid != len(whole) || bitCount(jf.Bitmap, jf.Chunks) != 2 {
		t.Fatalf("torn journal replayed as %s, valid %d, %d chunks", jf.ID, jf.Valid, bitCount(jf.Bitmap, jf.Chunks))
	}
	// Missing dir is a clean first boot.
	res, err = scanJournals(filepath.Join(dir, "nonexistent"))
	if err != nil || len(res.files) != 0 || res.corrupted != 0 {
		t.Fatalf("missing dir: %+v, %v", res, err)
	}
}
