package resthttp

import (
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/csp"
)

// The listing is a closed schema,
//
//	[{"name":"…","size":N,"modified":"<RFC 3339>"}, …]
//
// so both ends handle it with code written for exactly that shape instead of
// reflecting over a struct per entry. appendListing emits the bytes
// encoding/json would (HTML-safe escaping included); decodeListing accepts a
// subset of what encoding/json would accept into the same struct and, where
// it accepts, returns the same values. The tests hold both to that with
// encoding/json as the reference.

// appendListing appends the listing document for infos to dst.
func appendListing(dst []byte, infos []csp.ObjectInfo) ([]byte, error) {
	dst = append(dst, '[')
	for i, info := range infos {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = appendJSONString(dst, info.Name)
		dst = append(dst, `,"size":`...)
		dst = strconv.AppendInt(dst, info.Size, 10)
		dst = append(dst, `,"modified":`...)
		modified, err := info.Modified.MarshalJSON()
		if err != nil {
			return nil, fmt.Errorf("listing %q: %v", info.Name, err)
		}
		dst = append(dst, modified...)
		dst = append(dst, '}')
	}
	return append(dst, ']', '\n'), nil
}

// appendJSONString appends s as a JSON string literal, escaped the way
// encoding/json escapes by default: quote, backslash, control bytes, the
// HTML-sensitive <, > and &, U+2028/U+2029, and each byte of invalid UTF-8 as
// \ufffd (so such a name does not survive the wire — neither did it before).
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
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
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// decodeListing parses one listing document. Members may come in any order
// and with any insignificant whitespace; each entry must carry exactly the
// three members, once each. Anything else is an error.
func decodeListing(data []byte) ([]csp.ObjectInfo, error) {
	s := listScanner{data: data}
	out := []csp.ObjectInfo{}
	ok := s.eat('[')
	if ok && !s.eat(']') {
		for {
			var info csp.ObjectInfo
			if ok = s.entry(&info); !ok {
				break
			}
			out = append(out, info)
			if s.eat(',') {
				continue
			}
			ok = s.eat(']')
			break
		}
	}
	if s.skipSpace(); !ok || s.i != len(data) {
		return nil, fmt.Errorf("malformed at byte %d of %d", s.i, len(data))
	}
	return out, nil
}

// listScanner is a cursor over a listing document. Its methods report
// success; on failure i is at or near the offending byte.
type listScanner struct {
	data []byte
	i    int
}

func (s *listScanner) skipSpace() {
	for s.i < len(s.data) {
		switch s.data[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next significant byte.
func (s *listScanner) eat(c byte) bool {
	s.skipSpace()
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// entry parses one {"name":…,"size":…,"modified":…} object.
func (s *listScanner) entry(info *csp.ObjectInfo) bool {
	if !s.eat('{') {
		return false
	}
	const name, size, modified, all = 1, 2, 4, 7
	seen := 0
	for {
		key, escaped, ok := s.str()
		if !ok || escaped || !s.eat(':') {
			return false
		}
		var member int
		switch string(key) {
		case "name":
			member = name
			raw, escaped, ok := s.str()
			if !ok || !utf8.Valid(raw) {
				return false
			}
			if !escaped {
				info.Name = string(raw)
			} else if info.Name, ok = unescapeJSON(raw); !ok {
				return false
			}
		case "size":
			member = size
			if info.Size, ok = s.integer(); !ok {
				return false
			}
		case "modified":
			member = modified
			// Time.UnmarshalJSON takes the literal, quotes included,
			// and does not unescape it either.
			raw, escaped, ok := s.str()
			if !ok || escaped || info.Modified.UnmarshalJSON(s.data[s.i-len(raw)-2:s.i]) != nil {
				return false
			}
		default:
			return false
		}
		if seen&member != 0 {
			return false
		}
		seen |= member
		if s.eat(',') {
			continue
		}
		return s.eat('}') && seen == all
	}
}

// str scans the string literal that comes next and returns what stands
// between its quotes, still escaped, and whether that holds a backslash.
func (s *listScanner) str() (raw []byte, escaped, ok bool) {
	if !s.eat('"') {
		return nil, false, false
	}
	start := s.i
	for ; s.i < len(s.data); s.i++ {
		switch c := s.data[s.i]; {
		case c == '"':
			s.i++
			return s.data[start : s.i-1], escaped, true
		case c == '\\':
			escaped = true
			s.i++ // whatever is escaped, it does not end the literal
		case c < 0x20:
			return nil, false, false
		}
	}
	return nil, false, false
}

// integer scans a JSON number that is an integer: no fraction, no exponent.
func (s *listScanner) integer() (int64, bool) {
	s.skipSpace()
	start := s.i
	if s.i < len(s.data) && s.data[s.i] == '-' {
		s.i++
	}
	digits := s.i
	for s.i < len(s.data) && '0' <= s.data[s.i] && s.data[s.i] <= '9' {
		s.i++
	}
	if s.i == digits || (s.data[digits] == '0' && s.i > digits+1) {
		return 0, false
	}
	v, err := strconv.ParseInt(string(s.data[start:s.i]), 10, 64)
	return v, err == nil
}

// unescapeJSON resolves the escapes of a JSON string literal's contents
// (valid UTF-8, no control bytes, every backslash followed by a byte), as
// encoding/json does: an unpaired surrogate becomes U+FFFD.
func unescapeJSON(raw []byte) (string, bool) {
	hex4 := func(b []byte) (rune, bool) {
		if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
			return 0, false
		}
		v, err := strconv.ParseUint(string(b[2:6]), 16, 16)
		return rune(v), err == nil
	}
	buf := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); {
		if raw[i] != '\\' {
			buf = append(buf, raw[i])
			i++
			continue
		}
		switch c := raw[i+1]; c {
		case '"', '\\', '/':
			buf = append(buf, c)
		case 'b':
			buf = append(buf, '\b')
		case 'f':
			buf = append(buf, '\f')
		case 'n':
			buf = append(buf, '\n')
		case 'r':
			buf = append(buf, '\r')
		case 't':
			buf = append(buf, '\t')
		case 'u':
			r, ok := hex4(raw[i:])
			if !ok {
				return "", false
			}
			i += 6
			if utf16.IsSurrogate(r) {
				low, _ := hex4(raw[i:])
				if r = utf16.DecodeRune(r, low); r != unicode.ReplacementChar {
					i += 6
				}
			}
			buf = utf8.AppendRune(buf, r)
			continue
		default:
			return "", false
		}
		i += 2
	}
	return string(buf), true
}
