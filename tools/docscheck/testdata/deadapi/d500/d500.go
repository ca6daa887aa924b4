package d500

import "errors"

// ErrClosed is a sentinel callers match with errors.Is; nothing in the
// module names it.
var ErrClosed = errors.New("closed")

// Run is called from cmd/app.
func Run() {}

// Describe is called only from d500_test.go.
func Describe() string { return "" }
