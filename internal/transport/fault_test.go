package transport

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"deep500/internal/dist"
	"deep500/internal/mpi"
	"deep500/internal/tensor"
	"deep500/internal/training"
)

// errReset is what a faultConn returns once its link has been cut.
var errReset = errors.New("injected connection reset")

// faultListener hands out connections that share one byte budget, counted
// over everything read and written through them. When the budget runs out
// mid-operation the operation moves only the bytes left (a partial frame),
// the connection closes under it, and the link stays cut: every later
// operation on any of its connections, including ones accepted afterwards,
// fails with errReset.
type faultListener struct {
	net.Listener
	mu   sync.Mutex
	left int64
}

func newFaultListener(ln net.Listener) *faultListener {
	return &faultListener{Listener: ln, left: math.MaxInt64}
}

// arm sets the remaining budget to n bytes.
func (l *faultListener) arm(n int64) {
	l.mu.Lock()
	l.left = n
	l.mu.Unlock()
}

// take reserves up to want bytes of budget and reports how many were
// granted; 0 means the link is cut.
func (l *faultListener) take(want int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := int64(want)
	if n > l.left {
		n = l.left
	}
	l.left -= n
	return int(n)
}

func (l *faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: c, l: l}, nil
}

type faultConn struct {
	net.Conn
	l *faultListener
}

func (c *faultConn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	n := c.l.take(len(p))
	if n == 0 {
		c.Conn.Close()
		return 0, errReset
	}
	got, err := c.Conn.Read(p[:n])
	if got < n { // hand back what the read did not use
		c.l.mu.Lock()
		c.l.left += int64(n - got)
		c.l.mu.Unlock()
	}
	return got, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	n := c.l.take(len(p))
	if n < len(p) {
		wrote, _ := c.Conn.Write(p[:n])
		c.Conn.Close()
		return wrote, errReset
	}
	return c.Conn.Write(p)
}

// dsgdPair builds two-rank DSGD over ranks (a small MLP, product SGD), with
// the drivers it wraps, and one fixed batch per rank.
func dsgdPair(t *testing.T, ranks []dist.Rank) ([]training.Optimizer, []*training.Driver, []map[string]*tensor.Tensor) {
	t.Helper()
	ds := training.SyntheticClassification(16, 4, []int{1, 6, 6}, 0.2, 13)
	opts := make([]training.Optimizer, len(ranks))
	drivers := make([]*training.Driver, len(ranks))
	feeds := make([]map[string]*tensor.Tensor, len(ranks))
	for i, r := range ranks {
		drivers[i] = training.NewDriver(testModel(21), training.NewFusedSGD(0.1))
		opts[i] = dist.NewConsistentDecentralized(drivers[i], r, mpi.AllreduceRing)
		feeds[i] = dist.NewDistributedSampler(ds, 8, i, len(ranks), 1).Next().Feeds()
	}
	return opts, drivers, feeds
}

// stepAll runs one Train per rank concurrently and returns each rank's
// error and how long its Train took. A panic on a rank goroutine fails the
// test instead of the process.
func stepAll(t *testing.T, opts []training.Optimizer, feeds []map[string]*tensor.Tensor) ([]error, []time.Duration) {
	t.Helper()
	errs := make([]error, len(opts))
	took := make([]time.Duration, len(opts))
	var wg sync.WaitGroup
	for i := range opts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("rank %d panicked: %v", i, p)
				}
			}()
			start := time.Now()
			_, errs[i] = opts[i].Train(context.Background(), feeds[i])
			took[i] = time.Since(start)
		}(i)
	}
	wg.Wait()
	return errs, took
}

// TestDSGDFabricFailureReturnsError injects a connection reset into a
// two-rank DSGD step, part way through its all-reduce (the cut point is
// drawn from a seeded RNG as a fraction of one step's wire traffic), and
// checks what both ranks see: Train returns a *NetError, well before the
// fabric's two-minute receive timeout, nothing panics, and the failed step
// changed nothing: each rank holds its pre-step parameter slab bit for bit
// and its driver's Step did not advance.
func TestDSGDFabricFailureReturnsError(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			var fault *faultListener
			tcp := world(t, 2, func(o *Options) {
				if o.ID == 0 {
					fault = newFaultListener(o.Listener)
					o.Listener = fault
				}
			})
			opts, drivers, feeds := dsgdPair(t, []dist.Rank{tcp[0], tcp[1]})
			if errs, _ := stepAll(t, opts, feeds); errs[0] != nil || errs[1] != nil {
				t.Fatalf("healthy step failed: %v, %v", errs[0], errs[1])
			}
			st := tcp[0].Stats()
			stepBytes := st.SentBytes + st.RecvBytes
			frac := 0.2 + 0.6*tensor.NewRNG(seed).Float64()
			fault.arm(int64(frac * float64(stepBytes)))

			before := make([][]float32, len(opts))
			for rank, o := range opts {
				before[rank] = slices.Clone(o.Executor().Network().ParamSlab().Data())
			}
			errs, took := stepAll(t, opts, feeds)
			const bound = 15 * time.Second // RecvTimeout is 2 minutes
			for rank, err := range errs {
				var ne *NetError
				if !errors.As(err, &ne) {
					t.Errorf("rank %d: Train returned %v, want a *NetError", rank, err)
				}
				if took[rank] > bound {
					t.Errorf("rank %d: the failed step took %v", rank, took[rank])
				}
				if err == nil {
					continue
				}
				if drivers[rank].Step != 1 {
					t.Errorf("rank %d: the failed step advanced Step to %d", rank, drivers[rank].Step)
				}
				for i, v := range opts[rank].Executor().Network().ParamSlab().Data() {
					if math.Float32bits(v) != math.Float32bits(before[rank][i]) {
						t.Errorf("rank %d: the failed step changed parameter %d from %g to %g", rank, i, before[rank][i], v)
						break
					}
				}
			}
		})
	}
}

// countingRank counts the calls made on a fabric and cancels a context on
// the first receive, so the receive it delegates finds the step cancelled.
type countingRank struct {
	dist.Rank
	cancel      context.CancelFunc
	sends, recv int
}

func (r *countingRank) Send(dst, tag int, data []float32, simBytes int64) error {
	r.sends++
	return r.Rank.Send(dst, tag, data, simBytes)
}

func (r *countingRank) Recv(ctx context.Context, src int) (dist.Message, error) {
	if r.recv++; r.recv == 1 {
		go r.cancel()
	}
	return r.Rank.Recv(ctx, src)
}

// TestDSGDCancelInRecv cancels a DSGD step while its first all-reduce waits
// on a peer that never sends: Train returns the context's error promptly
// (no receive timeout), and the all-reduce stops there: no further send or
// receive reaches the fabric.
func TestDSGDCancelInRecv(t *testing.T) {
	tcp := world(t, 2, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r0 := &countingRank{Rank: tcp[0], cancel: cancel}
	opts, _, feeds := dsgdPair(t, []dist.Rank{r0, tcp[1]})
	start := time.Now()
	_, err := opts[0].Train(ctx, feeds[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Train returned %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("cancellation took %v", took)
	}
	if r0.sends != 1 || r0.recv != 1 {
		t.Fatalf("%d sends and %d receives reached the fabric, want 1 and 1", r0.sends, r0.recv)
	}
}
