package server

import (
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"dsmtherm/internal/mathx"
)

// writeNetcheck writes a /v1/netcheck reply: the bytes writeJSON writes
// for resp (json.MarshalIndent's plus a newline), appended indented in
// one pass into a pooled buffer. A 200-segment reply is about 69 KB,
// past writeJSON's pooled-buffer cap, and through writeJSON it is
// encoded, then re-indented; the route's one response type makes the
// direct writer short. As with writeJSON, a non-finite float is
// answered as a 422 numeric_failure before any byte goes out, and the
// result reports whether the body was written.
func writeNetcheck(w http.ResponseWriter, resp *NetcheckResponse) bool {
	buf := netcheckBufs.Get().(*netcheckBuf)
	defer buf.release()
	var err error
	buf.body, err = buf.appendResponse(buf.body[:0], resp)
	if err != nil {
		writeError(w, fmt.Errorf("%w: encode response: %v", mathx.ErrNumeric, err))
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, err = w.Write(buf.body)
	return err == nil
}

// netcheckBuf is a reply body and the sorted net names of its byNet
// map, pooled so a reply allocates neither.
type netcheckBuf struct {
	body []byte
	nets []string
}

// maxPooledNetcheck caps the body a pooled buffer keeps: a reply past
// about 700 segments is left to the GC rather than pinned in the pool.
const maxPooledNetcheck = 256 << 10

var netcheckBufs = sync.Pool{New: func() any { return new(netcheckBuf) }}

func (b *netcheckBuf) release() {
	if cap(b.body) > maxPooledNetcheck {
		return
	}
	clear(b.nets)
	b.nets = b.nets[:0]
	netcheckBufs.Put(b)
}

// appendResponse appends json.MarshalIndent(r, "", "  ") and a newline
// to dst, or fails on the first non-finite float as the encoder does.
func (b *netcheckBuf) appendResponse(dst []byte, r *NetcheckResponse) ([]byte, error) {
	dst = append(dst, "{\n  \"worst\": "...)
	dst = appendString(dst, r.Worst)
	dst = append(dst, ",\n  \"byNet\": "...)
	switch {
	case r.ByNet == nil:
		dst = append(dst, "null"...)
	case len(r.ByNet) == 0:
		dst = append(dst, "{}"...)
	default:
		b.nets = b.nets[:0]
		for net := range r.ByNet {
			b.nets = append(b.nets, net)
		}
		slices.Sort(b.nets)
		dst = append(dst, '{')
		for i, net := range b.nets {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(append(dst, "\n    "...), net)
			dst = appendString(append(dst, ": "...), r.ByNet[net])
		}
		dst = append(dst, "\n  }"...)
	}
	dst = append(dst, ",\n  \"findings\": "...)
	switch {
	case r.Findings == nil:
		dst = append(dst, "null"...)
	case len(r.Findings) == 0:
		dst = append(dst, "[]"...)
	default:
		dst = append(dst, '[')
		for i := range r.Findings {
			f := &r.Findings[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(append(dst, "\n    {\n      \"net\": "...), f.Net)
			dst = appendString(append(dst, ",\n      \"segment\": "...), f.Segment)
			dst = strconv.AppendInt(append(dst, ",\n      \"level\": "...), int64(f.Level), 10)
			for _, x := range [...]struct {
				key string
				v   float64
			}{
				{",\n      \"jpeakMA\": ", f.JpeakMA},
				{",\n      \"jrmsMA\": ", f.JrmsMA},
				{",\n      \"javgMA\": ", f.JavgMA},
				{",\n      \"reff\": ", f.Reff},
				{",\n      \"limitMA\": ", f.LimitMA},
				{",\n      \"margin\": ", f.Margin},
				{",\n      \"tmC\": ", f.TmC},
			} {
				var err error
				if dst, err = appendFloat(append(dst, x.key...), x.v); err != nil {
					return dst, err
				}
			}
			if f.ThermallyShort {
				dst = append(dst, ",\n      \"thermallyShort\": true"...)
			}
			if f.BlechImmortal {
				dst = append(dst, ",\n      \"blechImmortal\": true"...)
			}
			dst = appendString(append(dst, ",\n      \"verdict\": "...), f.Verdict)
			dst = append(dst, "\n    }"...)
		}
		dst = append(dst, "\n  ]"...)
	}
	dst = strconv.AppendInt(append(dst, ",\n  \"segments\": "...), int64(r.Segments), 10)
	dst = strconv.AppendBool(append(dst, ",\n  \"deckCached\": "...), r.DeckCached)
	dst = strconv.AppendBool(append(dst, ",\n  \"deckCoalesced\": "...), r.DeckCoalesced)
	if r.DeckStale {
		dst = append(dst, ",\n  \"deckStale\": true"...)
	}
	return append(dst, "\n}\n"...), nil
}

// appendFloat appends f as encoding/json encodes a float64: the
// shortest round-trip digits, in exponent form below 1e-6 and from 1e21
// on, with the exponent unpadded. ±Inf and NaN are errors, as there.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendString appends s quoted as encoding/json quotes a string with
// HTML escaping on: <, > and & and the control bytes as \u00XX (with
// the short forms for \b \f \n \r \t), U+2028 and U+2029 as escapes,
// and each invalid UTF-8 byte as \ufffd.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
