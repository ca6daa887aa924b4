package main

import (
	"slices"
	"strings"
	"testing"
)

// TestCheckDeadAPI runs the dead-API check over a planted module. Reported:
// an unreferenced function, one only a _test.go file calls (in internal/
// and in the facade), a dead method that shares its name with a called
// one, and untagged fields that are set by key, positionally, by
// assignment or by ++ but never read, or not referenced at all. Live: a
// method only json.Marshaler, fmt.Stringer or an anonymous interface in a
// type assertion needs, one promoted through embedding into an interface
// implementer, fields read by code, by an in-package test or by an
// external test package, a tagged field only set, and the unnamed member
// of a used iota group. The facade's error sentinel is exempt.
func TestCheckDeadAPI(t *testing.T) {
	root := "testdata/deadapi"

	var reported []string
	for _, p := range checkDeadAPI(root, nil) {
		_, key, ok := strings.Cut(p, "exported ")
		if !ok {
			t.Fatalf("unexpected problem: %s", p)
		}
		reported = append(reported, strings.Fields(key)[0])
	}
	slices.Sort(reported)
	want := []string{"d500.Describe", "p.B.Reset", "p.Dead", "p.F.Assigned", "p.F.Counted",
		"p.F.Keyed", "p.F.Unused", "p.G.Y", "p.TestOnly"}
	if !slices.Equal(reported, want) {
		t.Fatalf("reported %v, want %v", reported, want)
	}

	// An allowlisted member is not reported; a stale entry, referenced or
	// no longer declared, is itself a problem.
	allow := map[string]string{
		"p.Dead":          testSupport,
		"p.T.MarshalJSON": satisfiesInterface,
		"p.Live":          testSupport,
		"p.Gone":          testSupport,
	}
	got := strings.Join(checkDeadAPI(root, allow), "\n")
	if strings.Contains(got, "exported p.Dead ") {
		t.Errorf("allowlisted p.Dead reported:\n%s", got)
	}
	for _, want := range []string{
		"allowlisted p.T.MarshalJSON is referenced",
		"allowlisted p.Live is referenced",
		"allowlisted p.Gone is not declared",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

// TestDeadAPIAllowlistReasons holds the repository's allowlist to its
// closed set of reasons and its size bound.
func TestDeadAPIAllowlistReasons(t *testing.T) {
	if len(deadAPIAllowlist) > 12 {
		t.Errorf("allowlist has %d entries, at most 12 allowed", len(deadAPIAllowlist))
	}
	for key, reason := range deadAPIAllowlist {
		switch reason {
		case satisfiesInterface, referenceImpl, testSupport:
		default:
			t.Errorf("%s: reason %q is not in the closed set", key, reason)
		}
	}
}
