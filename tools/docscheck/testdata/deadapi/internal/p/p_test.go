package p

import "testing"

func TestOnlyCaller(t *testing.T) { TestOnly() }
