// Package snapcodec is the shared on-disk framing for crash-safe state
// files: the cache snapshots of internal/server persist one gob payload
// behind this defensive header, and the per-job journals of
// internal/jobs frame their gob header with it (their chunk records
// follow it, see UnframePrefix). Both write whole files through the
// same atomic-rename discipline.
//
// File format, designed so a half-written or bit-flipped file is
// detected before a single byte reaches the payload decoder:
//
//	[8]  magic (owner-chosen, e.g. "DSMSNAP1")
//	[4]  version (big-endian uint32)
//	[8]  payload length (big-endian uint64)
//	[4]  CRC-32 (IEEE) of the payload
//	[n]  payload
//
// Writes are atomic: temp file in the same directory, fsync, rename,
// fsync of the directory. Readers therefore only ever observe a complete
// previous file or none at all, and a file that was written survives
// power loss; the header checks are defense against torn storage (crash
// mid-rename on weaker filesystems, manual copies, truncation).
package snapcodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// HeaderLen is the fixed byte length of the frame header.
const HeaderLen = 24

// ErrCorrupt is the sentinel wrapped by every Unframe failure: bad
// magic, version, checksum, or truncation. Owners wrap it (or their own
// sentinel around it) so callers classify corruption with errors.Is.
var ErrCorrupt = errors.New("snapcodec: corrupt frame")

// Frame renders payload behind the defensive header.
func Frame(magic [8]byte, version uint32, payload []byte) []byte {
	out := make([]byte, 0, len(payload)+HeaderLen)
	out = append(out, magic[:]...)
	out = binary.BigEndian.AppendUint32(out, version)
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// Unframe validates data's header against the expected magic, version
// and payload cap, and returns the checksummed payload; data must hold
// exactly one frame. Every failure wraps ErrCorrupt; arbitrary input
// errors, never panics.
func Unframe(magic [8]byte, version uint32, maxPayload int, data []byte) ([]byte, error) {
	payload, rest, err := UnframePrefix(magic, version, maxPayload, data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after a %d-byte payload", ErrCorrupt, len(rest), len(payload))
	}
	return payload, nil
}

// UnframePrefix is Unframe for a frame that starts data: it returns the
// checksummed payload and the bytes that follow the frame, for owners
// that append their own records after a framed header.
func UnframePrefix(magic [8]byte, version uint32, maxPayload int, data []byte) (payload, rest []byte, err error) {
	if len(data) < HeaderLen {
		return nil, nil, fmt.Errorf("%w: %d bytes, want at least the %d-byte header", ErrCorrupt, len(data), HeaderLen)
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return nil, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:8])
	}
	if v := binary.BigEndian.Uint32(data[8:12]); v != version {
		return nil, nil, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, v, version)
	}
	n := binary.BigEndian.Uint64(data[12:20])
	if n > uint64(maxPayload) {
		return nil, nil, fmt.Errorf("%w: payload length %d exceeds cap %d", ErrCorrupt, n, maxPayload)
	}
	if uint64(len(data)-HeaderLen) < n {
		return nil, nil, fmt.Errorf("%w: payload %d bytes, header says %d", ErrCorrupt, len(data)-HeaderLen, n)
	}
	payload, rest = data[HeaderLen:HeaderLen+int(n)], data[HeaderLen+int(n):]
	if sum := crc32.ChecksumIEEE(payload); sum != binary.BigEndian.Uint32(data[20:24]) {
		return nil, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, rest, nil
}

// WriteFileAtomic writes data to path via a same-directory temp file,
// fsync, rename and an fsync of the directory, so path always holds
// either the old complete file or the new one, and the new one's
// directory entry survives power loss.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making the renames and creates inside it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("snapcodec: sync dir %s: %w", dir, err)
	}
	return nil
}
