package jobs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testJournal() *journalFile {
	params := []byte(`{"level":4,"points":40}`)
	jf := &journalFile{
		ID: "jcafef00dcafef00", Type: TypeSweep, Lane: LaneInteractive,
		Params: params, ParamsSum: paramsSum(params),
		Deadline:  15 * time.Minute,
		Submitted: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		Status:    StatusQueued,
		Chunks:    3,
		Bitmap:    make([]uint64, 1),
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
}

func TestJournalDecodeRejectsCorruption(t *testing.T) {
	good, err := encodeJournal(testJournal())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"garbage":   []byte("twelve bytes"),
		"truncated": good[:len(good)/2],
		"payload flip": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-1] ^= 0x01
			return b
		}(),
		"wrong magic": func() []byte {
			b := append([]byte(nil), good...)
			copy(b, "DSMSNAP1") // the server snapshot magic: framed, but not a journal
			return b
		}(),
	}
	for name, data := range cases {
		if _, err := decodeJournal(data); !errors.Is(err, ErrJournalCorrupt) {
			t.Errorf("%s: err = %v, want ErrJournalCorrupt", name, err)
		}
	}
}

// TestJournalConsistencyChecks: frames that decode as gob but violate
// the journal invariants must be rejected, not trusted.
func TestJournalConsistencyChecks(t *testing.T) {
	mutations := map[string]func(*journalFile){
		"missing id":        func(jf *journalFile) { jf.ID = "" },
		"missing type":      func(jf *journalFile) { jf.Type = "" },
		"negative chunks":   func(jf *journalFile) { jf.Chunks = -1 },
		"absurd chunks":     func(jf *journalFile) { jf.Chunks = 1 << 21 },
		"bitmap sizing":     func(jf *journalFile) { jf.Bitmap = make([]uint64, 9) },
		"blob count":        func(jf *journalFile) { jf.ChunkData = jf.ChunkData[:2] },
		"bit/blob mismatch": func(jf *journalFile) { jf.ChunkData[1] = []byte("uncounted") },
		"params hash":       func(jf *journalFile) { jf.Params = []byte(`{"level":5,"points":40}`) },
		"bogus status":      func(jf *journalFile) { jf.Status = "paused" },
	}
	for name, mutate := range mutations {
		jf := testJournal()
		mutate(jf)
		data, err := encodeJournal(jf)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if _, err := decodeJournal(data); !errors.Is(err, ErrJournalCorrupt) {
			t.Errorf("%s: err = %v, want ErrJournalCorrupt", name, err)
		}
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
	if len(res.files) != 3 || res.corrupted != 0 {
		t.Fatalf("scan = %d files, %d corrupt", len(res.files), res.corrupted)
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
	// Missing dir is a clean first boot.
	res, err = scanJournals(filepath.Join(dir, "nonexistent"))
	if err != nil || len(res.files) != 0 || res.corrupted != 0 {
		t.Fatalf("missing dir: %+v, %v", res, err)
	}
}
