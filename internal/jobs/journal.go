package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dsmtherm/internal/snapcodec"
)

// Job journals: one append-only log file per job, carrying everything a
// restarted manager needs to resume the job bit-identically. The file
// is a header frame followed by records:
//
//	header   snapcodec frame (magic "DSMJRNL1", version, length, CRC-32)
//	         around a gob journalHeader: the original params and a
//	         SHA-256 of them (so a corrupted-but-CRC-valid or hand-edited
//	         journal cannot silently resume the wrong work), lane,
//	         deadline, submit time, status and chunk count
//	record*  kind u8 | chunk u32 | n u32 | payload [n] | CRC-32 u32
//
// Record integers are little-endian and the CRC covers kind through
// payload. A chunk record's payload is the chunk's result blob; a
// quarantine record's is one failure-manifest entry (attempts u32, then
// the error message). Records run in strictly ascending chunk order:
// the chunk loop runs in index order and every write emits its records
// in index order.
//
// Submit writes the header alone. Each checkpoint appends the records
// for the chunks and quarantine decisions that are new since the last
// durable write and fsyncs once, so a job's journal bytes grow linearly
// with its chunks. Replay keeps the longest valid prefix of records: a
// torn or corrupt record ends it, and boot cuts the tail off before
// anything is appended after it, so a crash mid-append costs only the
// torn record. A write that fails leaves the next one to rewrite the
// whole file. A job that goes terminal gets one atomic rewrite
// (snapcodec temp+fsync+rename) to a header alone, carrying status,
// result, error, manifest and bitmap but no chunk blobs.
//
// Corruption tolerance mirrors the server snapshot: a journal whose
// header fails the frame check, the gob decode, or internal consistency
// is quarantined (renamed *.corrupt) and counted — boot always proceeds.

var journalMagic = [8]byte{'D', 'S', 'M', 'J', 'R', 'N', 'L', '1'}

// journalVersion 2 is the header-plus-records log. Version 1 journals,
// one gob frame holding every chunk blob, fail the frame check and are
// quarantined like any other corrupt journal.
const journalVersion = 2

// journalMaxPayload caps the header's gob payload and the payload of
// any one record. The largest chunk blob, a 4096-branch chipcheck tile
// of verdicts, is orders of magnitude smaller, so anything bigger is a
// corrupt length field.
const journalMaxPayload = 64 << 20

// ErrJournalCorrupt is the sentinel wrapped by every journal decode
// failure: framing, gob, or internal inconsistency.
var ErrJournalCorrupt = errors.New("jobs: journal corrupt")

// journalHeader is the header frame's gob payload.
type journalHeader struct {
	ID   string
	Type string
	Lane Lane
	// Params is the job's params document exactly as submitted;
	// ParamsSum is its SHA-256. The task is rebuilt from Params on
	// resume, so the hash guards the determinism invariant: resume
	// computes the same work or not at all.
	Params    []byte
	ParamsSum [32]byte
	Deadline  time.Duration
	Submitted time.Time

	Status Status
	// Chunks is the task's chunk-grid size.
	Chunks int
	// A terminal journal is its header alone, which then also carries
	// the outcome; a live journal's header leaves these empty and its
	// progress lives in the records. Bitmap (Chunks bits, LSB first
	// within each word) marks completed chunks; Manifest is the encoded
	// per-chunk failure manifest (see manifest.go), empty when nothing
	// is quarantined; Result / ErrMsg are the terminal outcome.
	Bitmap   []uint64
	Manifest []byte
	Result   json.RawMessage
	ErrMsg   string
}

// journalFile is one job's journal as replayed: the header, with a live
// journal's records folded into Bitmap, Manifest and ChunkData.
type journalFile struct {
	journalHeader
	// ChunkData[c] is chunk c's blob, nil iff bit c is clear. A terminal
	// journal keeps no blobs: ChunkData is nil.
	ChunkData [][]byte
	// Valid is the length of the prefix replay accepted; bytes past it
	// are a torn or corrupt tail.
	Valid int
}

// Record kinds.
const (
	recChunk      byte = 1
	recQuarantine byte = 2
)

// recordOverhead is a record's framing: kind, chunk, length and CRC.
const recordOverhead = 13

// bitmap helpers.

func bitmapWords(chunks int) int { return (chunks + 63) / 64 }

func bitSet(bm []uint64, i int) { bm[i/64] |= 1 << (i % 64) }

func bitGet(bm []uint64, i int) bool { return bm[i/64]&(1<<(i%64)) != 0 }

func bitCount(bm []uint64, chunks int) int {
	n := 0
	for i := 0; i < chunks; i++ {
		if bitGet(bm, i) {
			n++
		}
	}
	return n
}

func paramsSum(params []byte) [32]byte { return sha256.Sum256(params) }

// encodeJournal renders jf as a whole journal file: a terminal jf as its
// header alone, a live one as its header followed by a record for every
// completed chunk and every manifest entry.
func encodeJournal(jf *journalFile) ([]byte, error) {
	h := jf.journalHeader
	var fails []ChunkFailure
	if !h.Status.Terminal() {
		if len(h.Manifest) > 0 {
			var err error
			if fails, err = DecodeManifest(h.Manifest, h.Chunks); err != nil {
				return nil, fmt.Errorf("jobs: journal encode: %w", err)
			}
		}
		h.Bitmap, h.Manifest = nil, nil
	}
	buf, err := encodeHeader(&h)
	if err != nil {
		return nil, err
	}
	if !h.Status.Terminal() {
		buf = appendRecords(buf, jf.Bitmap, nil, jf.ChunkData, fails)
	}
	return buf, nil
}

// encodeHeader renders the header frame.
func encodeHeader(h *journalHeader) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(h); err != nil {
		return nil, fmt.Errorf("jobs: journal encode: %w", err)
	}
	return snapcodec.Frame(journalMagic, journalVersion, payload.Bytes()), nil
}

// appendRecords appends to buf, in chunk order, a chunk record for every
// chunk set in bitmap but not in logged (nil: none logged) and a
// quarantine record for every entry of fails (ascending chunk order).
func appendRecords(buf []byte, bitmap, logged []uint64, data [][]byte, fails []ChunkFailure) []byte {
	for w, word := range bitmap {
		if w < len(logged) {
			word &^= logged[w]
		}
		for ; word != 0; word &= word - 1 {
			c := w*64 + bits.TrailingZeros64(word)
			for ; len(fails) > 0 && fails[0].Chunk < c; fails = fails[1:] {
				buf = appendQuarantineRecord(buf, fails[0])
			}
			buf = appendRecord(buf, recChunk, c, data[c])
		}
	}
	for _, f := range fails {
		buf = appendQuarantineRecord(buf, f)
	}
	return buf
}

func appendQuarantineRecord(buf []byte, f ChunkFailure) []byte {
	msg := f.Error[:min(len(f.Error), manifestMaxError)]
	payload := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+len(msg)), uint32(f.Attempts))
	return appendRecord(buf, recQuarantine, f.Chunk, append(payload, msg...))
}

func appendRecord(buf []byte, kind byte, chunk int, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(chunk))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// decodeJournal parses a journal: its header must be whole and
// consistent, or the journal is corrupt (every such failure wraps
// ErrJournalCorrupt); its records are replayed up to the first one that
// is torn, corrupt or out of place, and Valid says where that was.
// Arbitrary input must error or replay, never panic (the gob decode runs
// under a recovery boundary — the fuzz targets lean on this).
func decodeJournal(data []byte) (jf journalFile, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: decode panic: %v", ErrJournalCorrupt, r)
		}
	}()
	payload, recs, err := snapcodec.UnframePrefix(journalMagic, journalVersion, journalMaxPayload, data)
	if err != nil {
		return journalFile{}, fmt.Errorf("%w: %v", ErrJournalCorrupt, err)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&jf.journalHeader); err != nil {
		return journalFile{}, fmt.Errorf("%w: gob: %v", ErrJournalCorrupt, err)
	}
	if err := jf.check(); err != nil {
		return journalFile{}, err
	}
	jf.Valid = len(data) - len(recs)
	if !jf.Status.Terminal() {
		jf.replay(recs)
	}
	return jf, nil
}

// check validates the header's internal consistency — the invariants
// the manager relies on without re-checking (status, bitmap sizing,
// manifest/bitmap agreement, params hash).
func (h *journalHeader) check() error {
	if h.ID == "" || h.Type == "" {
		return fmt.Errorf("%w: missing id or type", ErrJournalCorrupt)
	}
	if h.Chunks < 0 || h.Chunks > 1<<20 {
		return fmt.Errorf("%w: chunk count %d", ErrJournalCorrupt, h.Chunks)
	}
	if paramsSum(h.Params) != h.ParamsSum {
		return fmt.Errorf("%w: params hash mismatch", ErrJournalCorrupt)
	}
	switch h.Status {
	case StatusQueued, StatusRunning:
		if len(h.Bitmap) != 0 || len(h.Manifest) != 0 {
			return fmt.Errorf("%w: live header carries a bitmap or manifest", ErrJournalCorrupt)
		}
		return nil
	case StatusDone, StatusFailed, StatusCancelled, StatusCompletedPartial:
	default:
		return fmt.Errorf("%w: status %q", ErrJournalCorrupt, h.Status)
	}
	if len(h.Bitmap) != bitmapWords(h.Chunks) {
		return fmt.Errorf("%w: bitmap %d words for %d chunks", ErrJournalCorrupt, len(h.Bitmap), h.Chunks)
	}
	if len(h.Manifest) == 0 {
		if h.Status == StatusCompletedPartial {
			return fmt.Errorf("%w: completed_partial without a manifest", ErrJournalCorrupt)
		}
		return nil
	}
	fails, err := DecodeManifest(h.Manifest, h.Chunks)
	if err != nil {
		return err
	}
	for _, f := range fails {
		// A chunk cannot be both completed and quarantined.
		if bitGet(h.Bitmap, f.Chunk) {
			return fmt.Errorf("%w: chunk %d both completed and quarantined", ErrJournalCorrupt, f.Chunk)
		}
	}
	return nil
}

// replay folds a live journal's records into jf, stopping at the first
// record that is torn, fails its CRC, does not parse, or does not follow
// its predecessor in strictly ascending chunk order. Chunk blobs alias
// recs.
func (jf *journalFile) replay(recs []byte) {
	jf.Bitmap = make([]uint64, bitmapWords(jf.Chunks))
	jf.ChunkData = make([][]byte, jf.Chunks)
	var fails []ChunkFailure
	last := -1
records:
	for {
		kind, c, payload, size, ok := nextRecord(recs)
		if !ok || c <= last || c >= jf.Chunks {
			break
		}
		switch {
		case kind == recChunk:
			bitSet(jf.Bitmap, c)
			jf.ChunkData[c] = payload
		case kind == recQuarantine && len(payload) >= 4 && len(payload)-4 <= manifestMaxError &&
			binary.LittleEndian.Uint32(payload) > 0:
			fails = append(fails, ChunkFailure{
				Chunk:    c,
				Attempts: int(binary.LittleEndian.Uint32(payload)),
				Error:    string(payload[4:]),
			})
		default:
			break records
		}
		last = c
		recs = recs[size:]
		jf.Valid += size
	}
	if len(fails) > 0 {
		jf.Manifest = EncodeManifest(fails)
	}
}

// nextRecord frames the record at the start of recs; ok is false when
// the record is torn or fails its CRC.
func nextRecord(recs []byte) (kind byte, chunk int, payload []byte, size int, ok bool) {
	if len(recs) < recordOverhead {
		return 0, 0, nil, 0, false
	}
	n := binary.LittleEndian.Uint32(recs[5:])
	if n > journalMaxPayload || uint64(n) > uint64(len(recs)-recordOverhead) {
		return 0, 0, nil, 0, false
	}
	end := 9 + int(n)
	if crc32.ChecksumIEEE(recs[:end]) != binary.LittleEndian.Uint32(recs[end:]) {
		return 0, 0, nil, 0, false
	}
	return recs[0], int(binary.LittleEndian.Uint32(recs[1:])), recs[9:end], end + 4, true
}

// journalPath is the on-disk location of one job's journal.
func journalPath(dir, id string) string { return filepath.Join(dir, id+".job") }

// appendJournal writes recs at off, the end of the job's durable log,
// and fsyncs once.
func appendJournal(path string, off int64, recs []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(recs, off)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// scanResult is what a boot-time directory scan yields.
type scanResult struct {
	files     []journalFile
	corrupted int
	// tornTails counts journals whose log ended in a torn or corrupt
	// record: replay kept the records before it and the tail was cut.
	tornTails int
}

// scanJournals loads every *.job file in dir. A journal whose header
// fails to decode is quarantined (renamed *.corrupt) and counted; one
// whose records end in a torn or corrupt tail keeps its valid prefix,
// and the tail is cut off before anything can be appended after it (if
// the cut fails, Valid is zeroed so the job's next write rewrites the
// file). Files are returned in Submitted order (ties broken by ID) so
// re-enqueued jobs keep their original queue order. A missing dir is a
// normal first boot.
func scanJournals(dir string) (scanResult, error) {
	var res scanResult
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return res, nil
		}
		return res, fmt.Errorf("jobs: journal scan: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".job") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		var jf journalFile
		if err == nil {
			jf, err = decodeJournal(data)
		}
		if err == nil && journalPath(dir, jf.ID) != path {
			err = fmt.Errorf("%w: journal %s claims id %q", ErrJournalCorrupt, e.Name(), jf.ID)
		}
		if err != nil {
			// Quarantine, never delete: the bytes stay on disk for a
			// post-mortem, but nothing will try to resume them again.
			res.corrupted++
			_ = os.Rename(path, path+".corrupt")
			continue
		}
		if jf.Valid < len(data) {
			// The job's next append fsyncs the cut along with its records;
			// a cut lost before then is simply made again at the next boot.
			res.tornTails++
			if err := os.Truncate(path, int64(jf.Valid)); err != nil {
				jf.Valid = 0
			}
		}
		res.files = append(res.files, jf)
	}
	sort.Slice(res.files, func(i, j int) bool {
		a, b := &res.files[i], &res.files[j]
		if !a.Submitted.Equal(b.Submitted) {
			return a.Submitted.Before(b.Submitted)
		}
		return a.ID < b.ID
	})
	return res, nil
}
