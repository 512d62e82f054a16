package netcheck

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// designDecoder decodes one design file in a single pass over its
// bytes, straight into the schema's fields. It accepts exactly what
// encoding/json's Decoder with DisallowUnknownFields accepts for a
// *DesignFile and yields the same value (FuzzParseDesign holds the two
// side by side):
//
//   - only the first JSON value is read; bytes after it are ignored,
//     and the reader is read no further than that value needs;
//   - keys match field names as bytes.EqualFold does, Unicode folds
//     included, and a key that matches no field is an error;
//   - null leaves a string, number or struct field as it was and sets
//     segments to nil; a repeated key decodes into what is already there,
//     so a second "segments" array merges into the existing elements and
//     keeps any beyond its length in the slice's spare capacity;
//   - "level" takes only an integer literal in int's range, and a float
//     field rejects a number past float64's range;
//   - strings turn each invalid UTF-8 byte and each unpaired \u
//     surrogate into U+FFFD.
//
// Any other value where the schema expects a different type is an error,
// so no branch ever has to skip a value it does not decode.
type designDecoder struct {
	r       io.Reader
	buf     []byte // every byte read so far; buf[pos:] is unread
	pos     int
	err     error  // the reader's error, reported once buf runs out
	scratch []byte // unquoted string bytes
}

// maxPooledDesign caps the read buffer a pooled decoder keeps: a larger
// design's buffer is left to the GC rather than pinned in the pool.
const maxPooledDesign = 256 << 10

var designDecoders = sync.Pool{New: func() any { return new(designDecoder) }}

// ParseDesign decodes (strictly — unknown fields are errors) a design
// file without materializing anything. It reads r only as far as the
// first JSON value's end.
func ParseDesign(r io.Reader) (*DesignFile, error) {
	d := designDecoders.Get().(*designDecoder)
	d.r, d.buf, d.pos, d.err = r, d.buf[:0], 0, nil
	var df DesignFile
	err := d.design(&df)
	d.r, d.err = nil, nil
	if cap(d.buf) <= maxPooledDesign && cap(d.scratch) <= maxPooledDesign {
		designDecoders.Put(d)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: design file: %v", ErrInvalid, err)
	}
	return &df, nil
}

// fill reads more input onto buf and reports whether any arrived.
func (d *designDecoder) fill() bool {
	for d.err == nil {
		if len(d.buf) == cap(d.buf) {
			d.buf = slices.Grow(d.buf, len(d.buf)+512)
		}
		n, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+n]
		d.err = err
		if n > 0 {
			return true
		}
	}
	return false
}

// avail reports whether n unread bytes are buffered, reading for them
// if they are not.
func (d *designDecoder) avail(n int) bool {
	for len(d.buf)-d.pos < n {
		if !d.fill() {
			return false
		}
	}
	return true
}

// endErr is the error for input that ends inside a value: the reader's
// own error, or io.ErrUnexpectedEOF when it simply ran out.
func (d *designDecoder) endErr() error {
	if d.err == nil || d.err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return d.err
}

func (d *designDecoder) syntaxErr(context string) error {
	return fmt.Errorf("invalid character %q %s at offset %d", d.buf[d.pos], context, d.pos)
}

// peek returns the next unread byte past any JSON whitespace without
// consuming it.
func (d *designDecoder) peek() (byte, error) {
	if d.pos < len(d.buf) && d.buf[d.pos] > ' ' {
		return d.buf[d.pos], nil
	}
	return d.skipSpace()
}

func (d *designDecoder) skipSpace() (byte, error) {
	for {
		for ; d.pos < len(d.buf); d.pos++ {
			switch c := d.buf[d.pos]; c {
			case ' ', '\t', '\n', '\r':
			default:
				return c, nil
			}
		}
		if !d.fill() {
			return 0, d.endErr()
		}
	}
}

// design decodes the top-level value: an object, or null for an empty
// design.
func (d *designDecoder) design(df *DesignFile) error {
	c, err := d.peek()
	if err == io.ErrUnexpectedEOF {
		return io.EOF
	}
	if err != nil {
		return err
	}
	if c != 'n' {
		return d.object(c, "design", func(key []byte) error {
			switch fieldName(key, "node", "j0MA", "gap", "metal", "segments") {
			case "node":
				return d.string(&df.Node)
			case "j0MA":
				return d.float(&df.J0MA)
			case "gap":
				return d.string(&df.Gap)
			case "metal":
				return d.string(&df.Metal)
			case "segments":
				return d.segments(&df.Segments)
			}
			return fmt.Errorf("unknown field %q", key)
		})
	}
	if err := d.null(); err != nil {
		return err
	}
	// A top-level literal ends only at the byte after it, so the input
	// must go on or end cleanly.
	if d.pos == len(d.buf) && !d.fill() && d.err != io.EOF {
		return d.err
	}
	return nil
}

func (d *designDecoder) segments(segs *[]SegmentSpec) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		*segs = nil
		return d.null()
	case '[':
	default:
		return d.typeErr(c, "segments")
	}
	d.pos++
	if c, err = d.peek(); err != nil {
		return err
	}
	if c == ']' {
		d.pos++
		*segs = []SegmentSpec{} // a fresh empty slice, as reflect makes
		return nil
	}
	s := *segs
	for n := 1; ; n++ {
		// Grow as reflect does: a slot past len but within cap still
		// holds what an earlier "segments" key decoded there.
		if n > len(s) {
			if n <= cap(s) {
				s = s[:n]
			} else {
				s = append(s, SegmentSpec{})
			}
		}
		if err = d.segment(&s[n-1]); err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		switch c {
		case ',':
			d.pos++
		case ']':
			d.pos++
			*segs = s[:n]
			return nil
		default:
			return d.syntaxErr("after array element")
		}
	}
}

func (d *designDecoder) segment(s *SegmentSpec) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	return d.object(c, "segment", func(key []byte) error {
		switch fieldName(key, "net", "name", "level", "widthMultiple", "lengthUm", "waveform") {
		case "net":
			return d.string(&s.Net)
		case "name":
			return d.string(&s.Name)
		case "level":
			return d.int(&s.Level)
		case "widthMultiple":
			return d.float(&s.WidthMultiple)
		case "lengthUm":
			return d.float(&s.LengthUm)
		case "waveform":
			c, err := d.peek()
			if err != nil {
				return err
			}
			return d.object(c, "waveform", func(key []byte) error {
				w := &s.Waveform
				switch fieldName(key, "kind", "amps", "peakMA", "dutyCycle") {
				case "kind":
					return d.string(&w.Kind)
				case "amps":
					return d.float(&w.Amps)
				case "peakMA":
					return d.float(&w.PeakMA)
				case "dutyCycle":
					return d.float(&w.DutyCycle)
				}
				return fmt.Errorf("unknown field %q", key)
			})
		}
		return fmt.Errorf("unknown field %q", key)
	})
}

// fieldName returns the field name an object key selects, as
// encoding/json looks keys up: an exact match first, else one under
// Unicode case folding (bytes.EqualFold); "" when no name matches.
func fieldName(key []byte, names ...string) string {
	for _, name := range names {
		if string(key) == name {
			return name
		}
	}
	for _, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return name
		}
	}
	return ""
}

// object decodes the object that starts with c (null leaves the target
// as it was), calling field with each key once the decoder stands at
// the key's value. The key is only valid until field decodes a string.
func (d *designDecoder) object(c byte, what string, field func(key []byte) error) error {
	switch c {
	case 'n':
		return d.null()
	case '{':
	default:
		return d.typeErr(c, what)
	}
	d.pos++
	var key []byte
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == '}' {
		d.pos++
		return nil
	}
	for {
		if c != '"' {
			return d.syntaxErr("looking for beginning of object key string")
		}
		if key, err = d.quoted(); err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		if c != ':' {
			return d.syntaxErr("after object key")
		}
		d.pos++
		if _, err = d.peek(); err != nil {
			return err
		}
		if err = field(key); err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		switch c {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.syntaxErr("after object key:value pair")
		}
		if c, err = d.peek(); err != nil {
			return err
		}
	}
}

// typeErr rejects the value starting with c where the schema expects
// want; the value's own syntax does not matter, as it is never decoded.
func (d *designDecoder) typeErr(c byte, want string) error {
	var kind string
	switch {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == '-' || '0' <= c && c <= '9':
		kind = "number"
	default:
		return d.syntaxErr("looking for beginning of value")
	}
	return fmt.Errorf("cannot decode %s into %s at offset %d", kind, want, d.pos)
}

func (d *designDecoder) null() error {
	if !d.avail(4) {
		return d.endErr()
	}
	if string(d.buf[d.pos:d.pos+4]) != "null" {
		return d.syntaxErr("in literal null")
	}
	d.pos += 4
	return nil
}

func (d *designDecoder) string(dst *string) error {
	switch c := d.buf[d.pos]; c {
	case 'n':
		return d.null()
	case '"':
	default:
		return d.typeErr(c, "string field")
	}
	s, err := d.quoted()
	if err != nil {
		return err
	}
	// The waveform kinds repeat on every segment; share their strings.
	switch string(s) {
	case "dc":
		*dst = "dc"
	case "unipolar":
		*dst = "unipolar"
	case "bipolar":
		*dst = "bipolar"
	default:
		*dst = string(s)
	}
	return nil
}

func (d *designDecoder) float(dst *float64) error {
	num, err := d.number("float field")
	if num == nil || err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return fmt.Errorf("number %s out of range", num)
	}
	*dst = v
	return nil
}

func (d *designDecoder) int(dst *int) error {
	num, err := d.number("level")
	if num == nil || err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(num), 10, 0)
	if err != nil {
		return fmt.Errorf("level %s is not an int", num)
	}
	*dst = int(v)
	return nil
}

// number returns the bytes of the JSON number at pos, or nil for null.
func (d *designDecoder) number(what string) ([]byte, error) {
	switch c := d.buf[d.pos]; {
	case c == 'n':
		return nil, d.null()
	case c != '-' && (c < '0' || c > '9'):
		return nil, d.typeErr(c, what)
	}
	// The literal runs over every byte a number can hold: none of them
	// may follow a number, so the whole run must be one.
	end := d.pos
	for {
		for end < len(d.buf) && isNumberByte(d.buf[end]) {
			end++
		}
		if end < len(d.buf) || !d.fill() {
			break
		}
	}
	num := d.buf[d.pos:end]
	if !validNumber(num) {
		return nil, fmt.Errorf("invalid number literal %q at offset %d", num, d.pos)
	}
	d.pos = end
	return num, nil
}

func isNumberByte(c byte) bool {
	return '0' <= c && c <= '9' || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-'
}

// validNumber reports whether b is exactly one number in JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func validNumber(b []byte) bool {
	i := 0
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return false
		}
	}
	return i == len(b)
}

// quoted decodes the string whose opening quote is at pos and returns
// its bytes, valid until the next call: a slice of buf when the string
// needs no unquoting, else of scratch.
func (d *designDecoder) quoted() ([]byte, error) {
	d.pos++
	start := d.pos
	for {
		for ; d.pos < len(d.buf); d.pos++ {
			switch c := d.buf[d.pos]; {
			case c == '"':
				d.pos++
				return d.buf[start : d.pos-1], nil
			case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
				d.scratch = append(d.scratch[:0], d.buf[start:d.pos]...)
				return d.unquote()
			}
		}
		if !d.fill() {
			return nil, d.endErr()
		}
	}
}

// unquote finishes a string that needs escapes decoded or UTF-8
// repaired, as encoding/json unquotes it, appending to scratch.
func (d *designDecoder) unquote() ([]byte, error) {
	for {
		if d.pos == len(d.buf) && !d.fill() {
			return nil, d.endErr()
		}
		switch c := d.buf[d.pos]; {
		case c == '"':
			d.pos++
			return d.scratch, nil
		case c == '\\':
			if err := d.escape(); err != nil {
				return nil, err
			}
		case c < ' ':
			return nil, d.syntaxErr("in string literal")
		case c < utf8.RuneSelf:
			d.scratch = append(d.scratch, c)
			d.pos++
		default:
			// Decode with the whole rune buffered, unless the input ends
			// first; each invalid byte becomes one U+FFFD.
			for !utf8.FullRune(d.buf[d.pos:]) && d.fill() {
			}
			r, size := utf8.DecodeRune(d.buf[d.pos:])
			d.scratch = utf8.AppendRune(d.scratch, r)
			d.pos += size
		}
	}
}

// escape decodes the backslash escape at pos onto scratch.
func (d *designDecoder) escape() error {
	if !d.avail(2) {
		return d.endErr()
	}
	d.pos++
	c := d.buf[d.pos]
	d.pos++
	switch c {
	case '"', '\\', '/':
		d.scratch = append(d.scratch, c)
		return nil
	case 'b':
		d.scratch = append(d.scratch, '\b')
		return nil
	case 'f':
		d.scratch = append(d.scratch, '\f')
		return nil
	case 'n':
		d.scratch = append(d.scratch, '\n')
		return nil
	case 'r':
		d.scratch = append(d.scratch, '\r')
		return nil
	case 't':
		d.scratch = append(d.scratch, '\t')
		return nil
	case 'u':
	default:
		d.pos--
		return d.syntaxErr("in string escape code")
	}
	r, err := d.hex4()
	if err != nil {
		return err
	}
	if utf16.IsSurrogate(r) {
		// A surrogate takes the next \uXXXX as its pair when the two
		// make a rune; otherwise it alone becomes U+FFFD and the next
		// escape, if any, decodes on its own.
		save, pair := d.pos, unicode.ReplacementChar
		if d.avail(2) && d.buf[d.pos] == '\\' && d.buf[d.pos+1] == 'u' {
			d.pos += 2
			if r2, err := d.hex4(); err == nil {
				pair = utf16.DecodeRune(r, r2)
			}
		}
		if pair == unicode.ReplacementChar {
			d.pos = save
		}
		r = pair
	}
	d.scratch = utf8.AppendRune(d.scratch, r)
	return nil
}

var errHex = errors.New("invalid \\u escape")

// hex4 decodes the four hex digits at pos.
func (d *designDecoder) hex4() (rune, error) {
	if !d.avail(4) {
		return 0, d.endErr()
	}
	var r rune
	for _, c := range d.buf[d.pos : d.pos+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, errHex
		}
		r = r<<4 | rune(c)
	}
	d.pos += 4
	return r, nil
}
