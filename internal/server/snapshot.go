package server

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"dsmtherm/internal/core"
	"dsmtherm/internal/rules"
	"dsmtherm/internal/snapcodec"
)

// Cache snapshots: crash-safe warm restarts. A restarted daemon
// otherwise re-pays every Brent root-search its predecessor already
// performed — for a signoff service whose working set is a few thousand
// deterministic solves, that is minutes of avoidable cold-start solver
// burn on every deploy.
//
// What is persisted: successful solve and level-rule outcomes only.
// Both are flat exported-float structs, stable under gob. Deck
// results hold a *ntrs.Technology (pointer-heavy, versioned by code,
// cheap to rebuild relative to its solves) and error outcomes are
// deliberately forgotten across restarts — a new binary may well fix
// them. Skipped entries are counted, never silently dropped.
//
// The file rides the shared snapcodec framing — magic "DSMSNAP1",
// version, length, CRC-32, then the gob-encoded snapFile — and the
// shared atomic temp+fsync+rename write, so a half-written or
// bit-flipped file is detected before a single byte reaches gob and
// readers only ever observe a complete previous snapshot or none at
// all. The job journals of internal/jobs use the same codec with their
// own magic.

var snapMagic = [8]byte{'D', 'S', 'M', 'S', 'N', 'A', 'P', '1'}

const snapVersion = 1

// snapMaxPayload caps how much a load will buffer: a snapshot holds at
// most the cache's bounded working set, so anything past this is a
// corrupt length field, not data (64 MiB is ~100× a full 4096-entry
// cache).
const snapMaxPayload = 64 << 20

// ErrSnapshotCorrupt is the sentinel wrapped by every decode failure:
// bad magic, version, checksum, truncation, or gob garbage.
var ErrSnapshotCorrupt = errors.New("server: snapshot corrupt")

// snapKind discriminates entry payloads. Kinds unknown to this binary
// (a future version's entries) are skipped on load, not fatal.
const (
	snapKindSolve = uint8(1)
	snapKindRule  = uint8(2)
)

// snapEntry is one persisted cache entry. Exactly one of Solve/Rule is
// meaningful, selected by Kind.
type snapEntry struct {
	Key   string
	Kind  uint8
	Solve core.Solution
	Rule  rules.LevelRule
}

// snapFile is the gob payload.
type snapFile struct {
	Entries []snapEntry
}

// encodeSnapshot renders entries into the framed format.
func encodeSnapshot(entries []snapEntry) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(snapFile{Entries: entries}); err != nil {
		return nil, fmt.Errorf("server: snapshot encode: %w", err)
	}
	return snapcodec.Frame(snapMagic, snapVersion, payload.Bytes()), nil
}

// decodeSnapshot parses a framed snapshot. Every failure wraps
// ErrSnapshotCorrupt; arbitrary input must error, never panic (the gob
// decode runs under a recovery boundary — gob is documented to be
// panic-free on untrusted input, but a warm-restart path must not bet
// the process on that; the fuzz target leans on this).
func decodeSnapshot(data []byte) (sf snapFile, err error) {
	defer recoverTo(&err, "snapshot.decode", nil)
	payload, err := snapcodec.Unframe(snapMagic, snapVersion, snapMaxPayload, data)
	if err != nil {
		return snapFile{}, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&sf); err != nil {
		return snapFile{}, fmt.Errorf("%w: gob: %v", ErrSnapshotCorrupt, err)
	}
	return sf, nil
}

// collectSnapshot walks the cache and gathers the persistable working
// set, counting (into skipped) entries that cannot or should not
// survive a restart.
func (s *Server) collectSnapshot() (entries []snapEntry, skipped uint64) {
	s.cache.Range(func(key string, val any) bool {
		switch v := val.(type) {
		case outcome[core.Solution]:
			if v.err != nil {
				skipped++
				return true
			}
			entries = append(entries, snapEntry{Key: key, Kind: snapKindSolve, Solve: v.v})
		case outcome[rules.LevelRule]:
			if v.err != nil {
				skipped++
				return true
			}
			entries = append(entries, snapEntry{Key: key, Kind: snapKindRule, Rule: v.v})
		default: // deck results and anything future
			skipped++
		}
		return true
	})
	return entries, skipped
}

// SaveSnapshot writes the cache's persistable working set to
// Config.SnapshotPath atomically. It is safe to call concurrently with
// serving (Range holds one shard lock at a time) and with itself (the
// periodic saver vs the shutdown save serialize on snapMu).
func (s *Server) SaveSnapshot() error {
	if s.cfg.SnapshotPath == "" {
		return nil
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	entries, skipped := s.collectSnapshot()
	s.metrics.SnapshotSkipped.Add(skipped)
	data, err := encodeSnapshot(entries)
	if err != nil {
		s.metrics.SnapshotSaveErrors.Add(1)
		return err
	}
	if err := snapcodec.WriteFileAtomic(s.cfg.SnapshotPath, data); err != nil {
		s.metrics.SnapshotSaveErrors.Add(1)
		return fmt.Errorf("server: snapshot save: %w", err)
	}
	s.metrics.SnapshotSaves.Add(1)
	return nil
}

// loadSnapshot restores the cache from Config.SnapshotPath at boot. It
// runs on its own goroutine (New starts serving immediately; /readyz
// holds 503 until this clears loading). Corruption tolerance is the
// point: a missing file is a normal first boot, and a corrupt or
// unreadable one is logged and counted — the daemon starts cold, it
// never refuses to start.
func (s *Server) loadSnapshot() {
	defer s.loading.Store(false)
	data, err := os.ReadFile(s.cfg.SnapshotPath)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.metrics.SnapshotLoadFailures.Add(1)
			log.Printf("server: snapshot load: %v (starting cold)", err)
		}
		return
	}
	if len(data) > snapMaxPayload+24 {
		// Refuse to even frame-check an absurd file; ReadFile already
		// buffered it, but nothing downstream should touch it.
		s.metrics.SnapshotLoadFailures.Add(1)
		log.Printf("server: snapshot load: %d bytes exceeds cap (starting cold)", len(data))
		return
	}
	sf, err := decodeSnapshot(data)
	if err != nil {
		s.metrics.SnapshotLoadFailures.Add(1)
		log.Printf("server: snapshot load: %v (starting cold)", err)
		return
	}
	loaded := uint64(0)
	for _, e := range sf.Entries {
		switch e.Kind {
		case snapKindSolve:
			s.cache.Add(e.Key, outcome[core.Solution]{v: e.Solve})
		case snapKindRule:
			s.cache.Add(e.Key, outcome[rules.LevelRule]{v: e.Rule})
		default:
			continue
		}
		loaded++
	}
	s.metrics.SnapshotLoaded.Add(loaded)
	log.Printf("server: snapshot loaded %d entries from %s", loaded, s.cfg.SnapshotPath)
}

// readSnapshotFile is a test/tool helper: decode a snapshot from r with
// the same framing and caps as the boot path.
func readSnapshotFile(r io.Reader) (snapFile, error) {
	data, err := io.ReadAll(io.LimitReader(r, snapMaxPayload+25))
	if err != nil {
		return snapFile{}, err
	}
	if len(data) > snapMaxPayload+24 {
		return snapFile{}, fmt.Errorf("%w: oversized file", ErrSnapshotCorrupt)
	}
	return decodeSnapshot(data)
}
