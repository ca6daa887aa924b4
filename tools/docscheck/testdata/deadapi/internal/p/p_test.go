package p

import "testing"

func TestOnlyCaller(t *testing.T) { TestOnly() }

func TestReadsField(t *testing.T) { _ = F{}.TestRead }
