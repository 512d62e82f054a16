package jobs

import (
	"bytes"
	"testing"
	"time"
)

// FuzzJournalDecode drives decodeJournal with arbitrary bytes: it must
// return ErrJournalCorrupt-class errors or a valid journal — never
// panic, never hang, never accept a frame whose invariants do not hold.
// The seed corpus covers the interesting strata: valid journals (empty,
// partial, terminal), every framing prefix, and truncations.
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
	seed(&journalFile{
		ID: "jfuzz0", Type: TypeSweep, Lane: LaneBulk,
		Params: params, ParamsSum: paramsSum(params),
		Submitted: time.Unix(1754000000, 0).UTC(), Status: StatusQueued,
		Chunks: 0, Bitmap: nil, ChunkData: nil,
	})
	partial := &journalFile{
		ID: "jfuzz1", Type: TypeMonteCarlo, Lane: LaneInteractive,
		Params: params, ParamsSum: paramsSum(params),
		Deadline:  time.Minute,
		Submitted: time.Unix(1754000001, 0).UTC(), Status: StatusQueued,
		Chunks: 70, Bitmap: make([]uint64, 2), ChunkData: make([][]byte, 70),
	}
	bitSet(partial.Bitmap, 0)
	partial.ChunkData[0] = bytes.Repeat([]byte{0x42}, 128)
	seed(partial)
	seed(&journalFile{
		ID: "jfuzz2", Type: TypeCoupling, Lane: LaneBulk,
		Params: params, ParamsSum: paramsSum(params),
		Submitted: time.Unix(1754000002, 0).UTC(), Status: StatusFailed,
		ErrMsg: "deadline 1m0s exceeded",
		Chunks: 1, Bitmap: make([]uint64, 1), ChunkData: make([][]byte, 1),
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		jf, err := decodeJournal(data)
		if err != nil {
			return
		}
		// Anything accepted must satisfy the invariants the manager
		// relies on, and must re-encode/re-decode cleanly.
		if err := jf.check(); err != nil {
			t.Fatalf("accepted journal fails check: %v", err)
		}
		out, err := encodeJournal(&jf)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if _, err := decodeJournal(out); err != nil {
			t.Fatalf("re-decode: %v", err)
		}
	})
}

// FuzzJournalRoundTrip mutates the structured fields instead of raw
// bytes: every journal the encoder can produce must survive the
// decoder, and the frame must detect any single-byte corruption of the
// payload.
func FuzzJournalRoundTrip(f *testing.F) {
	f.Add("jid1", TypeSweep, []byte(`{"level":4}`), 3, uint64(0b101), "")
	f.Add("jid2", TypeMonteCarlo, []byte(`{}`), 0, uint64(0), "boom")
	f.Add("jid3", TypeCoupling, []byte(`{"pitchesUm":[1]}`), 64, ^uint64(0), "")

	f.Fuzz(func(t *testing.T, id, typ string, params []byte, chunks int, bits uint64, errMsg string) {
		if id == "" || typ == "" || chunks < 0 || chunks > 4096 {
			return
		}
		jf := &journalFile{
			ID: id, Type: typ, Lane: LaneBulk,
			Params: params, ParamsSum: paramsSum(params),
			Submitted: time.Unix(1754000000, 0).UTC(),
			Status:    StatusQueued,
			Chunks:    chunks,
			Bitmap:    make([]uint64, bitmapWords(chunks)),
			ChunkData: make([][]byte, chunks),
		}
		if errMsg != "" {
			jf.Status = StatusFailed
			jf.ErrMsg = errMsg
		}
		for c := 0; c < chunks && c < 64; c++ {
			if bits&(1<<c) != 0 {
				bitSet(jf.Bitmap, c)
				jf.ChunkData[c] = []byte{byte(c)}
			}
		}
		data, err := encodeJournal(jf)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := decodeJournal(data)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if got.ID != id || got.Chunks != chunks || got.ErrMsg != jf.ErrMsg {
			t.Fatalf("round trip changed fields: %+v", got)
		}
		if len(data) > 0 {
			bad := append([]byte(nil), data...)
			bad[int(bits%uint64(len(bad)))] ^= 0x55
			if jf2, err := decodeJournal(bad); err == nil {
				// A flip in the gob payload is caught by the CRC; a flip
				// that somehow decodes must still satisfy the invariants.
				if err := jf2.check(); err != nil {
					t.Fatalf("corrupted decode fails check: %v", err)
				}
			}
		}
	})
}
