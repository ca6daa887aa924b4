// Package p names markdown files in its comments: docs/kept.md exists from
// the tree's root, and so does README.md. DESIGN.md does not (see
// DESIGN.md §5).
package p

// names holds a markdown name in a string, not a comment: it is not checked.
var names = []string{"GONE.md"}
