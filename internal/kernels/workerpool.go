package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is the shared worker budget for all intra-operator parallelism in
// the repository: the packed GEMM, im2col convolution, convolution backward
// and the dataset decoders borrow workers from one fixed budget instead of
// spawning goroutines independently, so concurrent parallel regions (two
// serve replicas, say) cannot oversubscribe the machine.
//
// The pool is a counting semaphore of worker tokens, not a task queue. A
// parallel region always executes on the calling goroutine and additionally
// borrows however many tokens are free at that moment. Because callers never
// wait for a token, progress is guaranteed even when every token is held —
// a kernel invoked while the budget is drained simply runs inline.
type Pool struct {
	workers int
	tokens  chan struct{}
}

// NewPool returns a pool with the given total worker budget (including the
// calling goroutine of each parallel region); budgets below 1 are clamped.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, tokens: make(chan struct{}, workers-1)}
	for i := 0; i < workers-1; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// Default is the process-wide pool, sized to GOMAXPROCS once at package
// initialization; later GOMAXPROCS changes (e.g. go test -cpu) do not
// resize it — construct a dedicated NewPool for experiments that vary the
// worker budget.
var Default = NewPool(runtime.GOMAXPROCS(0))

// Workers returns the total worker budget.
func (p *Pool) Workers() int { return p.workers }

// Span returns the maximum number of workers a parallel region over n tasks
// can occupy — callers use it to size per-worker scratch buffers before
// invoking ParallelWorker.
func (p *Pool) Span(n int) int {
	s := min(p.workers, n)
	if s < 1 {
		s = 1
	}
	return s
}

// tryAcquire borrows one worker token without blocking; a true result
// must be paired with release.
func (p *Pool) tryAcquire() bool {
	select {
	case <-p.tokens:
		return true
	default:
		return false
	}
}

func (p *Pool) release() { p.tokens <- struct{}{} }

// Parallel runs fn(i) for every i in [0, n), using the calling goroutine
// plus as many free pool workers as are available (at most Span(n) total).
// Iterations are distributed dynamically via an atomic counter, so uneven
// task costs balance automatically. fn must be safe for concurrent calls
// with distinct i.
func (p *Pool) Parallel(n int, fn func(i int)) {
	p.ParallelWorker(n, func(_, i int) { fn(i) })
}

// ParallelWorker is Parallel with a worker-slot identifier: fn(w, i) is
// invoked with w in [0, Span(n)), and no two concurrent calls share a w —
// callers can therefore hand each slot private scratch space (the packed
// GEMM's A-panel buffer, for example) allocated once per slot instead of
// once per task.
func (p *Pool) ParallelWorker(n int, fn func(w, i int)) {
	if n <= 0 {
		return
	}
	want := min(p.workers, n) - 1
	borrowed := 0
	for borrowed < want && p.tryAcquire() {
		borrowed++
	}
	if borrowed == 0 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next int64
	run := func(w int) {
		for {
			i := int(atomic.AddInt64(&next, 1)) - 1
			if i >= n {
				return
			}
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	for h := 1; h <= borrowed; h++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer p.release()
			run(w)
		}(h)
	}
	run(0)
	wg.Wait()
}
