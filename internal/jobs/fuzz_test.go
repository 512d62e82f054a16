package jobs

import (
	"bytes"
	"testing"
	"time"
)

// checkReplayed asserts the invariants the manager relies on for a
// journal decodeJournal accepted: a consistent header, a bitmap sized to
// the grid, blobs exactly where bits are set (none in a terminal
// journal), and a manifest disjoint from the bitmap.
func checkReplayed(t *testing.T, jf *journalFile, size int) {
	t.Helper()
	if jf.Valid < 0 || jf.Valid > size {
		t.Fatalf("valid prefix %d of %d bytes", jf.Valid, size)
	}
	h := jf.journalHeader
	if !h.Status.Terminal() {
		// The replayed state must re-check as a terminal header would.
		h.Status = StatusDone
	}
	if err := h.check(); err != nil {
		t.Fatalf("accepted journal fails check: %v", err)
	}
	if jf.Status.Terminal() {
		if jf.ChunkData != nil {
			t.Fatalf("terminal journal replayed %d blobs", len(jf.ChunkData))
		}
		return
	}
	if len(jf.ChunkData) != jf.Chunks {
		t.Fatalf("%d blobs for %d chunks", len(jf.ChunkData), jf.Chunks)
	}
	for c := 0; c < jf.Chunks; c++ {
		if bitGet(jf.Bitmap, c) != (jf.ChunkData[c] != nil) {
			t.Fatalf("chunk %d bit/blob mismatch", c)
		}
	}
}

// sameJournal asserts two replays hold the same state.
func sameJournal(t *testing.T, got, want *journalFile) {
	t.Helper()
	if got.ID != want.ID || got.Type != want.Type || got.Lane != want.Lane ||
		got.Status != want.Status || got.Chunks != want.Chunks ||
		got.Deadline != want.Deadline || !got.Submitted.Equal(want.Submitted) ||
		got.ErrMsg != want.ErrMsg || !bytes.Equal(got.Params, want.Params) ||
		!bytes.Equal(got.Result, want.Result) || !bytes.Equal(got.Manifest, want.Manifest) {
		t.Fatalf("header mismatch:\n got %+v\nwant %+v", got.journalHeader, want.journalHeader)
	}
	if len(got.Bitmap) != len(want.Bitmap) {
		t.Fatalf("bitmap %d words, want %d", len(got.Bitmap), len(want.Bitmap))
	}
	for w := range want.Bitmap {
		if got.Bitmap[w] != want.Bitmap[w] {
			t.Fatalf("bitmap word %d: %#x, want %#x", w, got.Bitmap[w], want.Bitmap[w])
		}
	}
	if len(got.ChunkData) != len(want.ChunkData) {
		t.Fatalf("%d blobs, want %d", len(got.ChunkData), len(want.ChunkData))
	}
	for c := range want.ChunkData {
		if !bytes.Equal(got.ChunkData[c], want.ChunkData[c]) {
			t.Fatalf("chunk %d blob differs", c)
		}
	}
}

// FuzzJournalDecode drives decodeJournal with arbitrary bytes: it must
// return ErrJournalCorrupt-class errors or a valid replay — never panic,
// never hang, never accept a header whose invariants do not hold. What
// it accepts must re-encode to a journal that replays to the same state,
// and its valid prefix alone must replay to that state too. The seed
// corpus covers the interesting strata: valid journals (empty, with
// chunk and quarantine records, terminal), framing prefixes, torn tails
// and flipped bytes.
func FuzzJournalDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("DSMJRNL1"))
	f.Add([]byte("DSMSNAP1 not our magic but framed-ish"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	seed := func(jf *journalFile) {
		data, err := encodeJournal(jf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-1])
		f.Add(data[:len(data)/2])
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/2] ^= 0x80
		f.Add(flipped)
	}
	params := []byte(`{"level":4,"points":40}`)
	seed(&journalFile{journalHeader: journalHeader{
		ID: "jfuzz0", Type: TypeSweep, Lane: LaneBulk,
		Params: params, ParamsSum: paramsSum(params),
		Submitted: time.Unix(1754000000, 0).UTC(), Status: StatusQueued,
	}})
	partial := &journalFile{
		journalHeader: journalHeader{
			ID: "jfuzz1", Type: TypeMonteCarlo, Lane: LaneInteractive,
			Params: params, ParamsSum: paramsSum(params),
			Deadline:  time.Minute,
			Submitted: time.Unix(1754000001, 0).UTC(), Status: StatusQueued,
			Chunks: 70, Bitmap: make([]uint64, 2),
			Manifest: EncodeManifest([]ChunkFailure{{Chunk: 1, Attempts: 3, Error: "stuck"}}),
		},
		ChunkData: make([][]byte, 70),
	}
	bitSet(partial.Bitmap, 0)
	partial.ChunkData[0] = bytes.Repeat([]byte{0x42}, 128)
	bitSet(partial.Bitmap, 2)
	partial.ChunkData[2] = []byte("chunk two")
	seed(partial)
	seed(&journalFile{journalHeader: journalHeader{
		ID: "jfuzz2", Type: TypeCoupling, Lane: LaneBulk,
		Params: params, ParamsSum: paramsSum(params),
		Submitted: time.Unix(1754000002, 0).UTC(), Status: StatusFailed,
		ErrMsg: "deadline 1m0s exceeded",
		Chunks: 1, Bitmap: make([]uint64, 1),
	}})

	f.Fuzz(func(t *testing.T, data []byte) {
		jf, err := decodeJournal(data)
		if err != nil {
			return
		}
		checkReplayed(t, &jf, len(data))
		out, err := encodeJournal(&jf)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := decodeJournal(out)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if again.Valid != len(out) {
			t.Fatalf("re-encoded journal replays %d of %d bytes", again.Valid, len(out))
		}
		sameJournal(t, &again, &jf)
		prefix, err := decodeJournal(data[:jf.Valid])
		if err != nil {
			t.Fatalf("valid prefix: %v", err)
		}
		sameJournal(t, &prefix, &jf)
	})
}

// FuzzJournalRoundTrip mutates the structured fields instead of raw
// bytes: every journal the encoder can produce must replay whole, and a
// flipped byte may only cut the replay short — every chunk it still
// yields must hold exactly the bytes that were written.
func FuzzJournalRoundTrip(f *testing.F) {
	f.Add("jid1", TypeSweep, []byte(`{"level":4}`), 3, uint64(0b101), "")
	f.Add("jid2", TypeMonteCarlo, []byte(`{}`), 0, uint64(0), "boom")
	f.Add("jid3", TypeCoupling, []byte(`{"pitchesUm":[1]}`), 64, ^uint64(0), "")

	f.Fuzz(func(t *testing.T, id, typ string, params []byte, chunks int, bits uint64, errMsg string) {
		if id == "" || typ == "" || chunks < 0 || chunks > 4096 {
			return
		}
		// Chunks set in bits complete; of the rest below 64, every
		// chunk ≡ 1 (mod 4) is quarantined. A non-empty errMsg makes the
		// job terminal (failed), so it encodes as a compacted header.
		jf := &journalFile{
			journalHeader: journalHeader{
				ID: id, Type: typ, Lane: LaneBulk,
				Params: params, ParamsSum: paramsSum(params),
				Submitted: time.Unix(1754000000, 0).UTC(),
				Status:    StatusQueued,
				Chunks:    chunks,
				Bitmap:    make([]uint64, bitmapWords(chunks)),
			},
			ChunkData: make([][]byte, chunks),
		}
		var fails []ChunkFailure
		for c := 0; c < chunks && c < 64; c++ {
			switch {
			case bits&(1<<c) != 0:
				bitSet(jf.Bitmap, c)
				jf.ChunkData[c] = bytes.Repeat([]byte{byte(c)}, 1+c%7)
			case c%4 == 1:
				fails = append(fails, ChunkFailure{Chunk: c, Attempts: 1 + c%3, Error: errMsg + "poison"})
			}
		}
		if len(fails) > 0 {
			jf.Manifest = EncodeManifest(fails)
		}
		if errMsg != "" {
			jf.Status = StatusFailed
			jf.ErrMsg = errMsg
			jf.ChunkData = nil
		}
		data, err := encodeJournal(jf)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := decodeJournal(data)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if got.Valid != len(data) {
			t.Fatalf("round trip replays %d of %d bytes", got.Valid, len(data))
		}
		sameJournal(t, &got, jf)

		bad := append([]byte(nil), data...)
		bad[int(bits%uint64(len(bad)))] ^= 0x55
		cut, err := decodeJournal(bad)
		if err != nil {
			return // the flip hit the header
		}
		checkReplayed(t, &cut, len(bad))
		for c := 0; c < cut.Chunks; c++ {
			if !bitGet(cut.Bitmap, c) {
				continue
			}
			if !bitGet(jf.Bitmap, c) {
				t.Fatalf("flip invented chunk %d", c)
			}
			if cut.ChunkData != nil && !bytes.Equal(cut.ChunkData[c], jf.ChunkData[c]) {
				t.Fatalf("flip changed chunk %d's bytes", c)
			}
		}
		if len(cut.Manifest) > 0 {
			kept, err := DecodeManifest(cut.Manifest, cut.Chunks)
			if err != nil {
				t.Fatal(err)
			}
			if len(kept) > len(fails) {
				t.Fatalf("flip invented %d quarantine entries", len(kept)-len(fails))
			}
			for i := range kept {
				if kept[i] != fails[i] {
					t.Fatalf("flip changed quarantine entry %d: %+v, want %+v", i, kept[i], fails[i])
				}
			}
		}
	})
}
