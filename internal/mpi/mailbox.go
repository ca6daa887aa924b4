package mpi

import "sync"

// Mailbox holds one receiving rank's undelivered messages of type M: a FIFO
// per source rank, popped one source at a time or, for AnySource,
// round-robin across sources. Any number of goroutines may push; one owns
// the receiving side. Wake carries one pending token (capacity 1), sent on
// every push and by Signal, so a receiver that finds the mailbox empty and
// then waits on Wake never misses a push that landed in between.
//
// Both fabrics deliver through it: the simulator's ranks push straight into
// each other's mailboxes, the TCP rank's connection readers push what they
// decode. Each keeps its own wait loop around Pop.
type Mailbox[M any] struct {
	mu   sync.Mutex
	from []fifo[M]
	rr   int // round-robin cursor for AnySource fairness
	wake chan struct{}
}

// fifo is one source's queue. head indexes the next message; the backing
// array is rewound whenever the queue drains, so steady traffic reuses it.
type fifo[M any] struct {
	q    []M
	head int
}

func (f *fifo[M]) pop() (M, bool) {
	var zero M
	if f.head == len(f.q) {
		return zero, false
	}
	m := f.q[f.head]
	f.q[f.head] = zero // the queue must not pin a payload the receiver owns now
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return m, true
}

// NewMailbox returns an empty mailbox for messages from sources ranks.
func NewMailbox[M any](sources int) *Mailbox[M] {
	return &Mailbox[M]{from: make([]fifo[M], sources), wake: make(chan struct{}, 1)}
}

// Push appends m to src's queue and signals the receiver.
func (b *Mailbox[M]) Push(src int, m M) {
	b.mu.Lock()
	b.from[src].q = append(b.from[src].q, m)
	b.mu.Unlock()
	b.Signal()
}

// Pop dequeues the next message from src, or from the next source after the
// last one served that holds a message when src is AnySource. It returns
// the message's source, and false when there is none.
func (b *Mailbox[M]) Pop(src int) (M, int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if src != AnySource {
		m, ok := b.from[src].pop()
		return m, src, ok
	}
	for off := range b.from {
		s := (b.rr + off) % len(b.from)
		if m, ok := b.from[s].pop(); ok {
			b.rr = (s + 1) % len(b.from)
			return m, s, true
		}
	}
	var zero M
	return zero, AnySource, false
}

// Signal wakes the receiver without delivering anything, for an event it
// must re-check on waking (the TCP rank's lost connections).
func (b *Mailbox[M]) Signal() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// Wake is the receiver's wait channel: a token is pending after any Push or
// Signal the receiver has not yet woken for.
func (b *Mailbox[M]) Wake() <-chan struct{} { return b.wake }
