package d500

import "testing"

func TestDescribe(t *testing.T) { _ = Describe() }
