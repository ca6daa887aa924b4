package main

import (
	"slices"
	"strings"
	"testing"
)

// TestCheckDeadAPI runs the dead-API check over a planted tree: an
// unreferenced function and one only a _test.go file calls are reported;
// an allowlisted interface method and the unnamed member of a used iota
// group are not.
func TestCheckDeadAPI(t *testing.T) {
	root := "testdata/deadapi"
	allow := map[string]string{"p.T.MarshalJSON": satisfiesInterface}

	var reported []string
	for _, p := range checkDeadAPI(root, allow) {
		_, key, ok := strings.Cut(p, "exported ")
		if !ok {
			t.Fatalf("unexpected problem: %s", p)
		}
		reported = append(reported, strings.Fields(key)[0])
	}
	slices.Sort(reported)
	if want := []string{"p.Dead", "p.TestOnly"}; !slices.Equal(reported, want) {
		t.Fatalf("reported %v, want %v", reported, want)
	}

	// Without its allowlist entry the interface method is dead by name.
	if got := checkDeadAPI(root, nil); !slices.ContainsFunc(got, func(p string) bool {
		return strings.Contains(p, "exported p.T.MarshalJSON ")
	}) {
		t.Fatalf("MarshalJSON not reported without the allowlist: %v", got)
	}

	// A stale entry, referenced or no longer declared, is itself a problem.
	stale := map[string]string{"p.T.MarshalJSON": satisfiesInterface, "p.Live": testSupport, "p.Gone": testSupport}
	got := strings.Join(checkDeadAPI(root, stale), "\n")
	for _, want := range []string{"allowlisted p.Live is referenced", "allowlisted p.Gone is not declared"} {
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
