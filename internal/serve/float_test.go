package serve

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"deep500/internal/tensor"
)

// checkParseFloat32 scans in as the decoder scans one data value and holds
// parseFloat32 to strconv.ParseFloat(tok, 32): the same bits, the sign of
// zero included, and an error exactly when strconv has one. scanned is
// false when number(false) rejects in; fast reports whether exactFloat32
// proved the value.
func checkParseFloat32(t *testing.T, in string) (tok string, scanned, fast bool) {
	t.Helper()
	s := scanner{b: []byte(in)}
	b, d, err := s.number(false)
	if err != nil {
		return "", false, false
	}
	want, wantErr := strconv.ParseFloat(string(b), 32)
	got, gotErr := parseFloat32(b, d)
	if math.Float32bits(got) != math.Float32bits(float32(want)) || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: parseFloat32 = %#08x (%v), strconv = %#08x (%v)",
			b, math.Float32bits(got), gotErr, math.Float32bits(float32(want)), wantErr)
	}
	_, fast = exactFloat32(d, b[0] == '-')
	return string(b), true, fast
}

// float32Cases are the boundaries of exactFloat32's proof, each with the
// side of it the proof puts it on: fast when exactFloat32 proves it.
var float32Cases = []struct {
	in   string
	fast bool
}{
	{"0", true},
	{"-0", true},
	{"-0.0e5", true},
	{"0e999", true},
	{"-0e999", true},
	{"-0.000e-400", true},
	{"0.00000000000000000000000000", true},
	{"1", true},
	{"-1.5", true},
	{"0.1", true},
	{"-0.053922243", true},
	{"1.2345678e-05", true},
	{"123456789.125", true},
	{"3.4028234e38", false},                 // e = 31
	{"3.4028235e38", false},                 // MaxFloat32
	{"3.4028236e38", false},                 // rounds to MaxFloat32
	{"16777216", true},                      // 2^24
	{"16777217", false},                     // 2^24+1: a float32 midpoint, rounds to even 0x4b800000
	{"16777219", false},                     // 2^24+3: a midpoint, rounds up
	{"33554434", false},                     // 2^25+2: a midpoint
	{"1.00000005960464477539062500", false}, // 1+2^-24, a midpoint with 27 digits
	{"9007199254740992", true},              // 2^53
	{"9007199254740993", false},             // 2^53+1
	{"1234567890123456789", false},          // 19 digits, above 2^53
	{"1.234567890123456789", false},         // 19 significant digits, above 2^53
	{"0.000000000000000000001234567890123456", false},
	{"12345678901234567890", false},     // 20 digits
	{"18446744073709551616", false},     // 2^64: m wraps to 0
	{"18446744073709551616e-19", false}, // and stays refused with an exponent
	{"0.0000000000000000012345", true},  // leading zeros are not significant, e = -22
	{"1e22", true},
	{"-1e22", true},
	{"1e-22", true},
	{"4.5e-22", false}, // e = -23
	{"1e23", false},
	{"1e-23", false},
	{"8388608e22", true}, // 2^23·1e22 < MaxFloat32
	{"0.1000000000000000055511151231257827", false},
	{"1e39", false},  // out of range: an error
	{"-1e39", false}, // out of range: an error
	{"1e-60", false}, // underflows to 0
	{"1e-45", false},
	{"7e-46", false},
	{"1.17549435e-38", false},
	{"1e0000000000000000000001", true},
	{"1E+2", true},
	{"0." + manyZeros + "1e10021", false},         // 1, but the exponent is absurd
	{"0." + manyZeros + "1e100000000", false},     // an absurd exponent: strconv decides
	{"1" + manyZeros + "e-10020", false},          // 1, with 10021 digits
	{"0." + manyZeros + "1e-100000000000", false}, // underflows
}

var manyZeros = strings.Repeat("0", 10020)

// TestParseFloat32MatchesStrconv: float32Cases, each bit for bit strconv's
// and on its side of the proof, then a seeded sweep of the forms encoders
// print.
func TestParseFloat32MatchesStrconv(t *testing.T) {
	for _, tc := range float32Cases {
		name := tc.in
		if len(name) > 40 {
			name = name[:20] + "…" + name[len(name)-20:]
		}
		t.Run(name, func(t *testing.T) {
			tok, scanned, fast := checkParseFloat32(t, tc.in)
			if !scanned || tok != tc.in {
				t.Fatalf("number(false) does not take %q whole", tc.in)
			}
			if fast != tc.fast {
				t.Fatalf("exactFloat32 proves it: %v, want %v", fast, tc.fast)
			}
		})
	}

	rng := tensor.NewRNG(32)
	var fast, total int
	check := func(in string) {
		if _, scanned, ok := checkParseFloat32(t, in); scanned {
			total++
			if ok {
				fast++
			}
		}
	}
	for i := 0; i < 50000; i++ {
		// Random finite float32 bits in the shortest forms encoders print;
		// every other one inside the fast path's range of magnitudes.
		exp := rng.Intn(255)
		if i%2 == 1 {
			exp = 127 - 70 + rng.Intn(141)
		}
		x := math.Float32frombits(uint32(rng.Uint64())&^(0xff<<23) | uint32(exp)<<23)
		check(strconv.FormatFloat(float64(x), 'g', -1, 32))
		check(strconv.FormatFloat(float64(x), 'f', -1, 32))
		check(strconv.FormatFloat(float64(x), 'e', 8, 32))
		// The midpoint above |x|: exactly, and in the shortest float64
		// form, which often lies just off it with few enough digits for
		// the fast path.
		a := math.Abs(float64(x))
		mid := (a + float64(math.Nextafter32(float32(a), float32(math.Inf(1))))) / 2
		check(strconv.FormatFloat(mid, 'g', -1, 64))
		check(strconv.FormatFloat(mid, 'e', -1, 64))
		check(strconv.FormatFloat(mid, 'f', -1, 64))
		check(fmt.Sprintf("%.40e", mid))
		// An integer times a power of ten, around every fast-path bound.
		m := rng.Uint64() >> uint(rng.Intn(64))
		check(fmt.Sprintf("%de%d", m, rng.Intn(61)-30))
		check(fmt.Sprintf("-%d.%de-%d", m>>32, m&0xffff, rng.Intn(30)))
	}
	t.Logf("%d of %d swept numbers took the fast path", fast, total)
}

// TestDecodeFeedsBenchmarkTakesTheFastPath: every value in
// BenchmarkDecodeFeeds' body is one exactFloat32 proves, so the benchmark
// measures the fast path and a change that narrows it shows here.
func TestDecodeFeedsBenchmarkTakesTheFastPath(t *testing.T) {
	body := lenetRowBody(t)
	start := bytes.Index(body, []byte(`"data":[`)) + len(`"data":[`)
	end := start + bytes.IndexByte(body[start:], ']')
	values := bytes.Split(body[start:end], []byte{','})
	if len(values) != 784 {
		t.Fatalf("%d values in the body, want 784", len(values))
	}
	for _, v := range values {
		if tok, _, fast := checkParseFloat32(t, string(v)); tok != string(v) || !fast {
			t.Fatalf("%q takes strconv's path", v)
		}
	}
}

// FuzzParseFloat32 holds the conversion alone to strconv: whatever number
// number(false) takes from the input converts to the bits, and the error or
// none, that strconv.ParseFloat gives it.
func FuzzParseFloat32(f *testing.F) {
	for _, tc := range float32Cases {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		checkParseFloat32(t, in)
	})
}
