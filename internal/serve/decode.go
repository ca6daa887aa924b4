package serve

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"deep500/internal/tensor"
)

// The /v1/infer request decoder: a scanner for the one schema the endpoint
// has (the grammar is in http.go's header comment), in place of
// encoding/json's reflection-driven walk, which cost more CPU per LeNet
// request than all of convolution's arithmetic. A number yields the value
// strconv.ParseFloat(num, 32) returns, bit for bit (exactFloat32 has the
// proof), and that is the function encoding/json itself ends in, so a
// decoded tensor is bit for bit what json.Unmarshal would have produced.

// parseFeeds decodes a POST /v1/infer body, {"feeds": {name: TensorJSON}},
// into feed tensors. Every error is the client's: the caller answers 400.
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
// text and its value as a decimal. A character that cannot continue the
// number ends it; list rejects it there unless it is a separator.
func (s *scanner) number(integer bool) ([]byte, decimal, error) {
	s.skipSpace()
	b, i := s.b, s.pos
	var d decimal
	digits := func() int {
		from := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			d.m = d.m*10 + uint64(b[i]-'0')
		}
		return i - from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	zeroInt := i < len(b) && b[i] == '0'
	if zeroInt {
		i++
	} else if d.n = digits(); d.n == 0 {
		return nil, d, s.errf("want a number")
	}
	if !integer {
		if i < len(b) && b[i] == '.' {
			i++
			from := i
			for zeroInt && i < len(b) && b[i] == '0' {
				i++ // not significant: m is still 0
			}
			if d.n += digits(); i == from {
				return nil, d, s.errf("want digits after the decimal point")
			}
			d.frac = i - from
		}
		if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
			sign := 1
			if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
				if b[i] == '-' {
					sign = -1
				}
				i++
			}
			from := i
			for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
				if d.exp < 1e4 {
					d.exp = d.exp*10 + int(b[i]-'0')
				}
			}
			if i == from {
				return nil, d, s.errf("want digits in the exponent")
			}
			d.exp *= sign
		}
	}
	tok := b[s.pos:i]
	s.pos = i
	return tok, d, nil
}

// A decimal is a number's magnitude, m·10^(exp−frac), folded as number
// scans it. m holds the digits before and after the point, leading zeros
// left out; n counts them, and past 19 m has wrapped. frac is the number of
// digits after the point, and exp the exponent; an exponent of 10^4 or
// more in magnitude is left at some value at least that large.
type decimal struct {
	m            uint64
	n, frac, exp int
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
				tok, _, err := s.number(true)
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
				tok, d, err := s.number(false)
				if err != nil {
					return err
				}
				v, err := parseFloat32(tok, d)
				if err != nil {
					return s.errf("feed %q: number %s out of range for float32", name, tok)
				}
				data = append(data, v)
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

// parseFloat32 converts a number number(false) has scanned, its text tok
// and its value d, to the value strconv.ParseFloat(string(tok), 32)
// returns, bit for bit, with the same error. exactFloat32 proves most
// numbers a client's encoder prints; strconv converts the rest.
func parseFloat32(tok []byte, d decimal) (float32, error) {
	if v, ok := exactFloat32(d, tok[0] == '-'); ok {
		return v, nil
	}
	v, err := strconv.ParseFloat(string(tok), 32)
	return float32(v), err
}

// pow10 holds 1e0 … 1e22, the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exactFloat32 is Clinger's exact conversion ("How to Read Floating Point
// Numbers Accurately", PLDI 1990; strconv's atof64exact), narrowed to
// float32 by a midpoint guard. It reports ok only when it can prove that v
// is RN32(x), the float32 nearest x = ±m·10^e (ties to even), which is what
// strconv.ParseFloat(…, 32) returns:
//
//   - m = 0: v is ±0 with the number's sign, whatever the exponent, as
//     strconv gives it ("-0e999" is -0, not an error).
//   - m ≤ 2^53 and |e| ≤ 22: float64(m) and 10^|e| are both exact, so one
//     IEEE multiply or divide yields r = RN64(x). Every float32 midpoint
//     (a 25-bit significand) is a float64, and RN64 is monotone, so x and r
//     lie on the same side of every midpoint unless r is one; when it is
//     not, the double rounding float32(r) = RN32(r) equals RN32(x). A normal
//     float32 midpoint is a float64 whose low 29 fraction bits are exactly
//     1<<28, and such an r is refused. 1e-22 ≤ |x| ≤ 2^53·1e22 <
//     MaxFloat32, so no subnormal or overflowing float32 gets this far.
//
// Everything else is refused: more than 19 significant digits, m above
// 2^53, |e| above 22, an exponent of 10^4 or more in magnitude, whatever
// the digits after the point, and r on a midpoint.
func exactFloat32(d decimal, neg bool) (v float32, ok bool) {
	if d.n > 19 {
		return 0, false // m has wrapped
	}
	if d.m == 0 {
		if neg {
			return math.Float32frombits(1 << 31), true
		}
		return 0, true
	}
	e := d.exp - d.frac
	if d.m > 1<<53 || e < -22 || e > 22 || d.exp <= -1e4 || d.exp >= 1e4 {
		return 0, false
	}
	r := float64(d.m)
	if e >= 0 {
		r *= pow10[e]
	} else {
		r /= pow10[-e]
	}
	if math.Float64bits(r)&(1<<29-1) == 1<<28 {
		return 0, false
	}
	if neg {
		r = -r
	}
	return float32(r), true
}
