package p_test

import (
	"testing"

	"example/internal/p"
)

func TestExternal(t *testing.T) { _ = p.H{}.XRead }
