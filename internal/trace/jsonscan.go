package trace

import (
	"unicode/utf8"

	"storagesim/internal/sim"
	"storagesim/internal/units"
)

// scanJSONLine decodes a trimmed, non-empty JSONL line without reflection,
// and reports false for any line it does not fully recognise; ParseJSONL
// then hands that line to decodeJSONLine. It accepts a line only when the
// reference decoder would produce the same event from it:
//   - the line is exactly one object, with only JSON whitespace between
//     tokens and nothing after the closing brace;
//   - every key is a schema name, spelled exactly, escape-free and not
//     repeated (encoding/json case-folds "TS" and even "tſ" to ts, and
//     lets a repeated key win last);
//   - strings hold no escapes or control bytes and are valid UTF-8 (the
//     reference replaces invalid bytes with U+FFFD);
//   - bytes, io and rank are in-range JSON integers with no leading zero,
//     and bytes and io may also be size strings;
//   - ts is present, no value is null, and ts and latency parse with
//     units.ParseDuration.
//
// Tenant and op are interned in names. File and id are plain conversions:
// real traces can carry one path per request.
func scanJSONLine(line []byte, names interner) (Event, bool) {
	ev := Event{Rank: -1}
	s := jsonScanner{b: line}
	if !s.skip('{') {
		return ev, false
	}
	const tsBit = 1 << 0
	var seen uint // one bit per schema key
	for {
		key, ok := s.str()
		if !ok || !s.skip(':') {
			return ev, false
		}
		var v []byte
		var bit uint
		switch string(key) {
		case "ts":
			bit = tsBit
			if v, ok = s.str(); ok {
				var ts sim.Duration
				ts, ok = parseDuration(v)
				ev.At = sim.Time(0).Add(ts)
			}
		case "tenant":
			bit = 1 << 1
			if v, ok = s.str(); ok {
				ev.Tenant = names.intern(v)
			}
		case "op":
			bit = 1 << 2
			if v, ok = s.str(); ok {
				ev.Op = Op(names.intern(v))
			}
		case "bytes":
			bit = 1 << 3
			ev.Bytes, ok = s.size()
		case "io":
			bit = 1 << 4
			ev.IO, ok = s.size()
		case "latency":
			bit = 1 << 5
			// The reference leaves an empty latency unmeasured.
			if v, ok = s.str(); ok && len(v) > 0 {
				ev.Latency, ok = parseDuration(v)
			}
		case "rank":
			bit = 1 << 6
			var rank int64
			rank, ok = s.integer()
			ev.Rank = int(rank)
			ok = ok && int64(ev.Rank) == rank
		case "file":
			bit = 1 << 7
			if v, ok = s.str(); ok {
				ev.File = string(v)
			}
		case "id":
			bit = 1 << 8
			if v, ok = s.str(); ok {
				ev.ID = string(v)
			}
		default:
			return ev, false
		}
		if !ok || seen&bit != 0 {
			return ev, false
		}
		seen |= bit
		if !s.skip(',') {
			break
		}
	}
	return ev, s.skip('}') && s.i == len(s.b) && seen&tsBit != 0
}

// parseDuration parses a string value with units.ParseDuration. The
// conversion allocates nothing for values of up to 32 bytes, because
// ParseDuration does not let its argument escape.
func parseDuration(v []byte) (sim.Duration, bool) {
	d, err := units.ParseDuration(string(v))
	return d, err == nil
}

// interner returns one shared string per distinct spelling.
type interner map[string]string

func (in interner) intern(b []byte) string {
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	in[s] = s
	return s
}

// jsonScanner reads the tokens of one JSONL line. Its readers skip
// leading JSON whitespace and report false on anything scanJSONLine must
// leave to the reference decoder.
type jsonScanner struct {
	b []byte
	i int
}

func (s *jsonScanner) space() {
	for ; s.i < len(s.b); s.i++ {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
		default:
			return
		}
	}
}

// skip reports whether c is the next token, and consumes it if so.
func (s *jsonScanner) skip(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str reads a string whose bytes are its value: no escapes, no control
// bytes, valid UTF-8.
func (s *jsonScanner) str() ([]byte, bool) {
	if !s.skip('"') {
		return nil, false
	}
	start, ascii := s.i, true
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			v := s.b[start:s.i]
			s.i++
			return v, ascii || utf8.Valid(v)
		case c == '\\' || c < ' ':
			return nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false
}

// integer reads a JSON integer without a leading zero. At most 18 digits
// are taken, so the value cannot overflow; a longer one goes to the
// reference, which decides whether it fits. A fraction or exponent is
// left unread, so the line fails the next delimiter check.
func (s *jsonScanner) integer() (int64, bool) {
	s.space()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var v int64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		v = v*10 + int64(s.b[s.i]-'0')
	}
	if n := s.i - start; n == 0 || n > 18 || n > 1 && s.b[start] == '0' {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// size reads bytes or io: an integer, or a size string for
// units.ParseBytes.
func (s *jsonScanner) size() (int64, bool) {
	s.space()
	if s.i == len(s.b) || s.b[s.i] != '"' {
		return s.integer()
	}
	v, ok := s.str()
	if !ok {
		return 0, false
	}
	b, err := units.ParseBytes(string(v))
	return int64(b), err == nil
}
