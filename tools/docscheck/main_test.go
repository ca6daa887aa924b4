package main

import (
	"slices"
	"testing"
)

// TestCheckCitedTests runs the cited-test check over a planted tree: the
// README cites two declared funcs and two stale names, one of them twice;
// the root CHANGES.md, a record of history, cites a third, which passes, and
// docs/CHANGES.md, below the root, a fourth, which does not.
func TestCheckCitedTests(t *testing.T) {
	got := checkMarkdown("testdata/citedtests")
	want := []string{
		"testdata/citedtests/README.md: cites TestStale, which no func in the module declares",
		"testdata/citedtests/README.md: cites FuzzGone, which no func in the module declares",
		"testdata/citedtests/docs/CHANGES.md: cites BenchmarkOld, which no func in the module declares",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}
