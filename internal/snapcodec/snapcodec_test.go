package snapcodec

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

var testMagic = [8]byte{'T', 'E', 'S', 'T', 'M', 'A', 'G', '1'}

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("abc"), 1000)} {
		data := Frame(testMagic, 3, payload)
		got, err := Unframe(testMagic, 3, 1<<20, data)
		if err != nil {
			t.Fatalf("Unframe(%d bytes): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload mismatch: got %d bytes, want %d", len(got), len(payload))
		}
	}
}

func TestUnframeRejectsCorruption(t *testing.T) {
	good := Frame(testMagic, 1, []byte("hello snapshot"))
	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:HeaderLen-1],
		"bad magic": append([]byte("WRONGMAG"), good[8:]...),
		"truncated": good[:len(good)-3],
		"extended":  append(append([]byte(nil), good...), 0xFF),
		"payload flip": func() []byte {
			b := append([]byte(nil), good...)
			b[len(b)-1] ^= 0x40
			return b
		}(),
		"crc flip": func() []byte {
			b := append([]byte(nil), good...)
			b[20] ^= 0x01
			return b
		}(),
	}
	for name, data := range cases {
		if _, err := Unframe(testMagic, 1, 1<<20, data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := Unframe(testMagic, 2, 1<<20, good); !errors.Is(err, ErrCorrupt) {
		t.Errorf("version skew: err = %v, want ErrCorrupt", err)
	}
	if _, err := Unframe(testMagic, 1, 4, good); !errors.Is(err, ErrCorrupt) {
		t.Errorf("payload cap: err = %v, want ErrCorrupt", err)
	}
}

// TestUnframePrefix: a frame followed by an owner's own bytes yields the
// payload and exactly those bytes; a cut inside the frame is corrupt.
func TestUnframePrefix(t *testing.T) {
	frame := Frame(testMagic, 1, []byte("header"))
	data := append(append([]byte(nil), frame...), "records"...)
	payload, rest, err := UnframePrefix(testMagic, 1, 1<<20, data)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "header" || string(rest) != "records" {
		t.Fatalf("payload %q rest %q", payload, rest)
	}
	for n := 0; n < len(frame); n++ {
		if _, _, err := UnframePrefix(testMagic, 1, 1<<20, data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix %d: err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	if err := WriteFileAtomic(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "two" {
		t.Fatalf("content = %q, want %q", got, "two")
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries, want 1 (temp file leaked?)", len(entries))
	}
}
