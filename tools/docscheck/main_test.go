package main

import (
	"slices"
	"testing"
)

// TestCheckCitedTests runs the cited-test check over a planted tree: the
// README cites two declared funcs and two stale names, one of them twice;
// the root CHANGES.md, a record of history, cites a third, which passes, and
// testdata/citedtests/docs/CHANGES.md, below the root, a fourth, which does
// not.
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

// TestCheckCommentedMarkdown runs the markdown-path check over a planted
// tree. Its Go files' comments name markdown files that exist from the tree's
// root, from the file's own directory and above it, and two that do not,
// one of them twice; a string literal names a third, which is not a comment.
func TestCheckCommentedMarkdown(t *testing.T) {
	got := checkMarkdown("testdata/mdpaths")
	want := []string{
		"testdata/mdpaths/p.go: a comment names DESIGN.md, which is not in the repository",
		"testdata/mdpaths/sub/q.go: a comment names docs/gone.md, which is not in the repository",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}
