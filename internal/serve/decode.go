package serve

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode/utf8"

	"deep500/internal/tensor"
)

// The /v1/infer request decoder: a scanner for the one schema the endpoint
// has (the grammar is in http.go's header comment), in place of
// encoding/json's reflection-driven walk, which cost more CPU per LeNet
// request than all of convolution's arithmetic. Numbers go through
// strconv.ParseFloat(…, 32) — the function encoding/json itself ends in — so
// a decoded tensor is bit for bit what json.Unmarshal would have produced.

// parseFeeds decodes an inferRequest body into feed tensors. Every error is
// the client's: the caller answers 400.
func parseFeeds(body []byte) (map[string]*tensor.Tensor, error) {
	s := scanner{b: body}
	var feeds map[string]*tensor.Tensor
	err := s.object(func(key []byte) error {
		if string(key) != "feeds" {
			return s.errf("unknown field %q", key)
		}
		if feeds != nil {
			return s.errf("duplicate field %q", key)
		}
		feeds = map[string]*tensor.Tensor{}
		return s.object(func(name []byte) error {
			if _, dup := feeds[string(name)]; dup {
				return s.errf("duplicate feed %q", name)
			}
			t, err := s.tensor(name)
			if err == nil {
				feeds[string(name)] = t
			}
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	if s.skipSpace(); s.pos < len(s.b) {
		return nil, s.errf("unexpected %q after the request object", s.b[s.pos])
	}
	return feeds, nil
}

// scanner is a cursor over one request body.
type scanner struct {
	b   []byte
	pos int
}

func (s *scanner) errf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}

func (s *scanner) skipSpace() {
	for s.pos < len(s.b) {
		switch s.b[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// next skips whitespace and consumes one byte.
func (s *scanner) next() (byte, error) {
	s.skipSpace()
	if s.pos == len(s.b) {
		return 0, s.errf("unexpected end of body")
	}
	s.pos++
	return s.b[s.pos-1], nil
}

// expect consumes the byte c, after optional whitespace.
func (s *scanner) expect(c byte) error {
	got, err := s.next()
	if err == nil && got != c {
		s.pos--
		err = s.errf("unexpected %q, want %q", got, c)
	}
	return err
}

// list scans open item {"," item} shut, or open shut, calling item with the
// cursor on each item; item consumes it.
func (s *scanner) list(open, shut byte, item func() error) error {
	if err := s.expect(open); err != nil {
		return err
	}
	if s.skipSpace(); s.pos < len(s.b) && s.b[s.pos] == shut {
		s.pos++
		return nil
	}
	for {
		if err := item(); err != nil {
			return err
		}
		switch c, err := s.next(); {
		case err != nil:
			return err
		case c == shut:
			return nil
		case c != ',':
			s.pos--
			return s.errf("unexpected %q, want ',' or %q", c, shut)
		}
	}
}

// object scans a JSON object, calling member with each key and the cursor
// on that key's value.
func (s *scanner) object(member func(key []byte) error) error {
	return s.list('{', '}', func() error {
		key, err := s.name()
		if err != nil {
			return err
		}
		if err := s.expect(':'); err != nil {
			return err
		}
		return member(key)
	})
}

// name scans a JSON string that needs no unquoting: valid UTF-8, no escape
// sequences, no control characters. The result aliases the body.
func (s *scanner) name() ([]byte, error) {
	if err := s.expect('"'); err != nil {
		return nil, err
	}
	start := s.pos
	for ; s.pos < len(s.b); s.pos++ {
		switch c := s.b[s.pos]; {
		case c == '"':
			s.pos++
			if tok := s.b[start : s.pos-1]; utf8.Valid(tok) {
				return tok, nil
			}
			return nil, s.errf("name is not valid UTF-8")
		case c == '\\':
			return nil, s.errf("escape sequences in names are not accepted")
		case c < 0x20:
			return nil, s.errf("control character in name")
		}
	}
	return nil, s.errf("unexpected end of body in a name")
}

// number scans one number of the JSON grammar, -?(0|[1-9][0-9]*) followed,
// unless integer, by an optional fraction and exponent, and returns its
// text. A character that cannot continue the number ends it; list rejects
// it there unless it is a separator.
func (s *scanner) number(integer bool) ([]byte, error) {
	s.skipSpace()
	b, i := s.b, s.pos
	digits := func() bool {
		from := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, s.errf("want a number")
	}
	if !integer {
		if i < len(b) && b[i] == '.' {
			if i++; !digits() {
				return nil, s.errf("want digits after the decimal point")
			}
		}
		if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
			if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
				i++
			}
			if !digits() {
				return nil, s.errf("want digits in the exponent")
			}
		}
	}
	tok := b[s.pos:i]
	s.pos = i
	return tok, nil
}

// tensor scans one {"shape": [...], "data": [...]} object, in either key
// order, and validates it as the handler always has: the data must fill the
// shape and no dimension may be negative. An absent key reads as empty.
func (s *scanner) tensor(name []byte) (*tensor.Tensor, error) {
	var shape []int
	var data []float32
	err := s.object(func(key []byte) error {
		switch string(key) {
		case "shape":
			if shape != nil {
				return s.errf("feed %q: duplicate field %q", name, key)
			}
			shape = []int{}
			return s.list('[', ']', func() error {
				tok, err := s.number(true)
				if err != nil {
					return err
				}
				d, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
				if err != nil {
					return s.errf("feed %q: dimension %s out of range", name, tok)
				}
				shape = append(shape, int(d))
				return nil
			})
		case "data":
			if data != nil {
				return s.errf("feed %q: duplicate field %q", name, key)
			}
			// One value per comma up to the closing bracket, plus one:
			// the exact size, known before the first value is parsed, so
			// the values are written once into their final slice.
			rest := s.b[s.pos:]
			if end := bytes.IndexByte(rest, ']'); end >= 0 {
				rest = rest[:end]
			}
			data = make([]float32, 0, bytes.Count(rest, []byte{','})+1)
			return s.list('[', ']', func() error {
				tok, err := s.number(false)
				if err != nil {
					return err
				}
				v, err := strconv.ParseFloat(string(tok), 32)
				if err != nil {
					return s.errf("feed %q: number %s out of range for float32", name, tok)
				}
				data = append(data, float32(v))
				return nil
			})
		}
		return s.errf("feed %q: unknown field %q", name, key)
	})
	if err != nil {
		return nil, err
	}
	if len(data) != tensor.Volume(shape) {
		return nil, fmt.Errorf("feed %q: %d data values do not fill shape %v", name, len(data), shape)
	}
	for _, d := range shape {
		if d < 0 {
			return nil, fmt.Errorf("feed %q: negative dimension in shape %v", name, shape)
		}
	}
	return tensor.From(data, shape...), nil
}
