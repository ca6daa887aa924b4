package mpi

import (
	"slices"
	"testing"
)

// TestMailbox drives the mailbox both fabrics deliver through, on one
// goroutine and without a clock: per-source FIFO order, round-robin
// any-source pops, the wake token of a push made before the wait, and
// popped slots that no longer reference their payload.
func TestMailbox(t *testing.T) {
	type msg struct {
		data []float32
		seq  int
	}
	// pops pops n messages from src and returns their (source, seq) pairs.
	pops := func(t *testing.T, b *Mailbox[msg], src, n int) [][2]int {
		t.Helper()
		var got [][2]int
		for i := 0; i < n; i++ {
			m, s, ok := b.Pop(src)
			if !ok {
				t.Fatalf("pop %d from %d: empty", i, src)
			}
			got = append(got, [2]int{s, m.seq})
		}
		if _, _, ok := b.Pop(src); ok {
			t.Fatalf("pop from %d after %d messages: not empty", src, n)
		}
		return got
	}
	cases := []struct {
		name   string
		pushes [][2]int // (source, seq) in push order
		src    int
		want   [][2]int
	}{
		{"one source is FIFO", [][2]int{{2, 0}, {2, 1}, {2, 2}}, 2,
			[][2]int{{2, 0}, {2, 1}, {2, 2}}},
		{"a source pop skips the others", [][2]int{{1, 0}, {3, 1}, {1, 2}, {3, 3}}, 3,
			[][2]int{{3, 1}, {3, 3}}},
		{"any source rotates", [][2]int{{1, 0}, {1, 1}, {2, 2}, {2, 3}, {3, 4}, {3, 5}}, AnySource,
			[][2]int{{1, 0}, {2, 2}, {3, 4}, {1, 1}, {2, 3}, {3, 5}}},
		{"any source keeps each FIFO", [][2]int{{3, 0}, {3, 1}, {3, 2}, {0, 3}}, AnySource,
			[][2]int{{0, 3}, {3, 0}, {3, 1}, {3, 2}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewMailbox[msg](4)
			for _, p := range c.pushes {
				b.Push(p[0], msg{seq: p[1]})
			}
			n := 0
			for _, p := range c.pushes {
				if c.src == AnySource || p[0] == c.src {
					n++
				}
			}
			if got := pops(t, b, c.src, n); !slices.Equal(got, c.want) {
				t.Fatalf("popped %v, want %v", got, c.want)
			}
		})
	}

	t.Run("a push before the wait is not missed", func(t *testing.T) {
		b := NewMailbox[msg](2)
		b.Push(1, msg{seq: 7})
		b.Push(1, msg{seq: 8}) // a second push finds the token pending
		select {
		case <-b.Wake():
		default:
			t.Fatal("no wake token after a push")
		}
		if m, _, ok := b.Pop(1); !ok || m.seq != 7 {
			t.Fatalf("pop after wake: %+v %v", m, ok)
		}
		b.Signal()
		select {
		case <-b.Wake():
		default:
			t.Fatal("no wake token after Signal")
		}
		select {
		case <-b.Wake():
			t.Fatal("a second token without a push")
		default:
		}
	})

	t.Run("a popped slot drops its payload", func(t *testing.T) {
		b := NewMailbox[msg](2)
		for i := 0; i < 3; i++ {
			b.Push(1, msg{data: make([]float32, 4), seq: i})
		}
		q := b.from[1].q[:cap(b.from[1].q)]
		for i := 0; i < 3; i++ {
			if _, _, ok := b.Pop(1); !ok {
				t.Fatalf("pop %d: empty", i)
			}
			for j := 0; j <= i; j++ {
				if q[j].data != nil {
					t.Fatalf("after %d pops slot %d still holds its payload", i+1, j)
				}
			}
		}
	})
}
