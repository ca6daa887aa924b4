package p

// Dead is exported and nothing calls it.
func Dead() {}

// TestOnly is exported and only a test calls it.
func TestOnly() {}

// Live is called from cmd/app.
func Live() {}

// T is used from cmd/app.
type T struct{}

// MarshalJSON satisfies json.Marshaler, and cmd/app marshals a T; nothing
// names it.
func (T) MarshalJSON() ([]byte, error) { return []byte("{}"), nil }

// Mode enumerates with iota; cmd/app names only ModeA.
type Mode int

const (
	ModeA Mode = iota
	ModeB
)

// A and B both have a Reset; cmd/app calls only A's.
type (
	A struct{}
	B struct{}
)

func (A) Reset() {}
func (B) Reset() {}

// S has a String method that only fmt.Stringer needs.
type S struct{}

func (S) String() string { return "s" }

// Q has a method only an anonymous interface in cmd/app's type assertion
// needs.
type Q struct{}

func (Q) Quack() string { return "quack" }

// Namer is implemented by Outer, not by inner, which has only Name.
type Namer interface {
	Name() string
	Kind() string
}

type inner struct{}

func (inner) Name() string { return "inner" }

// Outer gets Name from inner.
type Outer struct{ inner }

// Kind completes Namer.
func (Outer) Kind() string { return "outer" }

// F's fields: cmd/app reads Read, sets Keyed by key, assigns Assigned
// and increments Counted; only a test reads TestRead; nothing references
// Unused; Tagged is set by key but carries a tag (reflection reads it).
type F struct {
	Read     int
	Keyed    int
	Assigned int
	Counted  int
	TestRead int
	Unused   int
	Tagged   int `json:"tagged"`
}

// G is built positionally, and cmd/app reads only X.
type G struct{ X, Y int }

// H's field is read only by the external test package.
type H struct{ XRead int }
