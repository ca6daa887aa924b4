package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"deep500/internal/dist"
	"deep500/internal/tensor"
)

// NetError is the error a TCPRank send or receive returns when the fabric
// fails: a peer unreachable, a connection lost, a receive timed out, the
// rank closed.
type NetError struct {
	// Op names the failing operation ("send", "recv", "dial", ...).
	Op string
	// Rank is the local rank, Peer the remote one (-1 if not applicable).
	Rank, Peer int
	// Err is the underlying cause.
	Err error
}

func (e *NetError) Error() string {
	return fmt.Sprintf("transport: rank %d %s peer %d: %v", e.Rank, e.Op, e.Peer, e.Err)
}

func (e *NetError) Unwrap() error { return e.Err }

// Protect runs fn and returns its error. It dates from when the fabric
// raised NetError as a panic; nothing panics now, and Protect remains only
// because the repository benchmark's pinned surface calls it.
func Protect(fn func() error) error { return fn() }

// Options configures a TCPRank.
type Options struct {
	// ID is this rank's index in [0, Size); Size is the world size.
	ID, Size int
	// Listener accepts connections from higher ranks. Required when Size > 1
	// and ID < Size-1; the rank owns and closes it.
	Listener net.Listener
	// Peers holds the listen address of every rank; only entries below ID
	// are dialed (the connection rule is "higher rank dials lower", which
	// keeps restarts simple: a restarted worker re-dials the server).
	Peers []string
	// DialRanks lists the lower ranks to dial eagerly at construction
	// (nil = all of 0..ID-1, the full mesh the ring collectives need).
	// Centralized topologies pass []int{0}: workers form a star around the
	// parameter server and never depend on sibling workers' listeners,
	// which disappear as siblings finish. Other lower ranks are still
	// dialed on demand if a send targets them.
	DialRanks []int
	// DialTimeout bounds one dial attempt. Default 2s.
	DialTimeout time.Duration
	// DialRetries bounds redial attempts per connection. Default 40.
	DialRetries int
	// DialBackoff is the initial retry backoff, doubling per attempt up to
	// 1s. Default 50ms.
	DialBackoff time.Duration
	// IOTimeout is the per-frame write (and handshake read) deadline.
	// Default 30s.
	IOTimeout time.Duration
	// RecvTimeout bounds every blocking receive; an expired wait is a fabric
	// failure (peer hung or dead), returned as *NetError. Default 2m.
	RecvTimeout time.Duration
	// QuantizeBits, when 1..8, ships every non-empty payload in the
	// dist.Quantize wire format at that width; 0 sends full precision.
	QuantizeBits uint
	// BestEffortSend makes sends to unreachable peers drop (counted in
	// Stats) instead of failing. The parameter server runs with this on, so
	// a reply to a worker that just died cannot take the server down.
	BestEffortSend bool
}

func (o *Options) withDefaults() Options {
	v := *o
	if v.DialTimeout <= 0 {
		v.DialTimeout = 2 * time.Second
	}
	if v.DialRetries <= 0 {
		v.DialRetries = 40
	}
	if v.DialBackoff <= 0 {
		v.DialBackoff = 50 * time.Millisecond
	}
	if v.IOTimeout <= 0 {
		v.IOTimeout = 30 * time.Second
	}
	if v.RecvTimeout <= 0 {
		v.RecvTimeout = 2 * time.Minute
	}
	return v
}

// Stats is a snapshot of a rank's wire counters.
type Stats struct {
	SentBytes, RecvBytes   int64
	SentFrames, RecvFrames int64
	// Dropped counts best-effort sends abandoned because the peer was
	// unreachable.
	Dropped int64
	// Redials counts dial attempts beyond the first per established
	// connection (retries and reconnects).
	Redials int64
}

// mailbox is the FIFO of delivered messages from one source. head indexes
// the next message to pop; the backing array is rewound whenever the queue
// drains, so steady-state traffic reuses it.
type mailbox struct {
	q    []dist.Message
	head int
}

func (b *mailbox) pop() (dist.Message, bool) {
	if b.head == len(b.q) {
		return dist.Message{}, false
	}
	m := b.q[b.head]
	b.q[b.head] = dist.Message{} // the queue must not pin a payload the consumer owns now
	if b.head++; b.head == len(b.q) {
		b.q, b.head = b.q[:0], 0
	}
	return m, true
}

// peer is the connection slot for one remote rank.
type peer struct {
	wmu  sync.Mutex // serializes frame writes on conn; guards wbuf
	wbuf []byte     // the frame being written, reused from send to send
	conn net.Conn
	gen  int // bumped on every (re)install, guards stale teardown
	// lostAt is when the last connection died without a replacement; zero
	// while connected (or before the first connection).
	lostAt time.Time
}

// reconnectGrace is how long a rank waits for a peer whose connection it
// lost to come back before a send to it or a receive from it fails. A
// restarted worker redials well within it; a dead peer fails the caller in
// about a second instead of after RecvTimeout.
const reconnectGrace = time.Second

// maxIdleSlabBytes bounds the receive slabs a rank keeps for reuse. Slabs
// released beyond it go to the garbage collector.
const maxIdleSlabBytes = 64 << 20

// TCPRank is the networked fabric: it implements dist.Rank over persistent
// TCP connections, one duplex connection per peer pair, established by the
// higher rank dialing the lower. Frames are demultiplexed by per-connection
// reader goroutines into per-source mailboxes, so sends never block on the
// application draining and the ring all-reduce's send-then-receive step
// cannot deadlock.
//
// Like *mpi.Rank, a TCPRank's Recv is owned by one goroutine (the rank's
// main loop); readers deliver concurrently from any number of connections.
// Every failure is a returned *NetError.
type TCPRank struct {
	opt Options

	mu    sync.Mutex // guards peers' conn/gen/lostAt
	peers []*peer

	inbox struct {
		sync.Mutex
		queues []mailbox
		rr     int // round-robin cursor for any-source fairness
	}
	notify chan struct{} // cap 1, signaled on every delivery
	// slabs recycles receive payloads: readers decode into a slab taken from
	// it, Release puts one back (see Release for the ownership rules).
	slabs *tensor.Arena
	// recvTimer is the receive-timeout timer, parked here between blocking
	// receives (nil while one is using it). A timer made and stopped per wait
	// would do for the timer heap; it is kept across waits only because a
	// time.NewTimer per blocking receive is an allocation, and the warm
	// send→recv→release round trip is held to zero bytes.
	recvTimer atomic.Pointer[time.Timer]

	closed   atomic.Bool
	closedCh chan struct{}
	wg       sync.WaitGroup

	sentBytes, recvBytes   atomic.Int64
	sentFrames, recvFrames atomic.Int64
	dropped, redials       atomic.Int64

	// traceCtx is the outbound trace context stamped on every frame this
	// rank sends ([trace, span]; nil = untraced). peerTrace is the most
	// recent non-zero trace context received from any peer — how a worker
	// that was not launched with an explicit context still learns the
	// step's trace.
	traceCtx  atomic.Pointer[[2]uint64]
	peerTrace atomic.Pointer[[2]uint64]
}

var _ dist.Rank = (*TCPRank)(nil)

// DefaultOptions returns the transport's resolved defaults (what a zero
// Options becomes): dial/IO/receive deadlines and retry policy. d500info
// prints these.
func DefaultOptions() Options { return (&Options{}).withDefaults() }

// New builds the rank, starts its accept loop, and eagerly dials every
// lower rank (with bounded retry-with-backoff, so peers may come up in any
// order). It returns once all lower connections are established.
func New(opt Options) (*TCPRank, error) {
	opt = opt.withDefaults()
	if opt.Size < 1 || opt.ID < 0 || opt.ID >= opt.Size {
		return nil, fmt.Errorf("transport: rank %d out of range for world size %d", opt.ID, opt.Size)
	}
	if len(opt.Peers) < opt.ID {
		return nil, fmt.Errorf("transport: %d peer addresses for rank %d", len(opt.Peers), opt.ID)
	}
	if opt.Listener == nil && opt.Size > 1 && opt.ID < opt.Size-1 {
		return nil, fmt.Errorf("transport: rank %d needs a listener (ranks above it dial in)", opt.ID)
	}
	t := &TCPRank{
		opt:      opt,
		peers:    make([]*peer, opt.Size),
		notify:   make(chan struct{}, 1),
		closedCh: make(chan struct{}),
		slabs:    tensor.NewArena(),
	}
	for i := range t.peers {
		t.peers[i] = &peer{}
	}
	t.inbox.queues = make([]mailbox, opt.Size)
	if opt.Listener != nil {
		t.wg.Add(1)
		go t.acceptLoop()
	}
	dialSet := opt.DialRanks
	if dialSet == nil {
		dialSet = make([]int, opt.ID)
		for i := range dialSet {
			dialSet[i] = i
		}
	}
	for _, dst := range dialSet {
		if dst < 0 || dst >= opt.ID {
			continue
		}
		if _, _, err := t.dialPeer(dst); err != nil {
			t.Close()
			return nil, err
		}
	}
	return t, nil
}

// ID returns this rank's index.
func (t *TCPRank) ID() int { return t.opt.ID }

// Size returns the world size.
func (t *TCPRank) Size() int { return t.opt.Size }

// Stats snapshots the wire counters.
func (t *TCPRank) Stats() Stats {
	return Stats{
		SentBytes:  t.sentBytes.Load(),
		RecvBytes:  t.recvBytes.Load(),
		SentFrames: t.sentFrames.Load(),
		RecvFrames: t.recvFrames.Load(),
		Dropped:    t.dropped.Load(),
		Redials:    t.redials.Load(),
	}
}

// SetTraceContext sets (or, with a zero traceID, clears) the trace
// context stamped on every subsequently sent frame. Safe to call
// concurrently with sends; typically set once per traced step.
func (t *TCPRank) SetTraceContext(traceID, spanID uint64) {
	if traceID == 0 {
		t.traceCtx.Store(nil)
		return
	}
	t.traceCtx.Store(&[2]uint64{traceID, spanID})
}

// PeerTraceContext returns the most recent non-zero trace context seen on
// an inbound frame, if any — a receiver-side rank joins the sender's
// trace through it.
func (t *TCPRank) PeerTraceContext() (traceID, spanID uint64, ok bool) {
	p := t.peerTrace.Load()
	if p == nil {
		return 0, 0, false
	}
	return p[0], p[1], true
}

// Close tears the rank down: listener, every connection, and all reader
// goroutines. Blocked receives unblock with a *NetError.
func (t *TCPRank) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(t.closedCh)
	if t.opt.Listener != nil {
		t.opt.Listener.Close()
	}
	t.mu.Lock()
	for _, p := range t.peers {
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		p.gen++
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}

// acceptLoop accepts connections from higher ranks and hands each to the
// hello handshake.
func (t *TCPRank) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.opt.Listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.handshake(c)
	}
}

// handshake reads the dialer's hello frame and installs the connection for
// that source rank. A malformed or untimely hello just drops the
// connection — a stray client cannot wedge the fabric.
func (t *TCPRank) handshake(c net.Conn) {
	defer t.wg.Done()
	c.SetReadDeadline(time.Now().Add(t.opt.IOTimeout))
	f, err := ReadFrame(c)
	if err != nil || f.Type != FrameHello {
		c.Close()
		return
	}
	src := int(f.Src)
	// The dial rule is higher-dials-lower, so a valid dialer outranks us.
	if src <= t.opt.ID || src >= t.opt.Size {
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})
	t.install(src, c)
}

// install makes c the live connection to src (closing any predecessor) and
// starts its reader.
func (t *TCPRank) install(src int, c net.Conn) {
	t.mu.Lock()
	if t.closed.Load() {
		t.mu.Unlock()
		c.Close()
		return
	}
	p := t.peers[src]
	if p.conn != nil {
		p.conn.Close()
	}
	p.conn = c
	p.gen++
	p.lostAt = time.Time{}
	gen := p.gen
	t.mu.Unlock()
	t.wg.Add(1)
	go t.reader(src, c, gen)
}

// dropConn clears the connection to src if it is still generation gen,
// recording the loss and waking a receiver that may be waiting on src.
func (t *TCPRank) dropConn(src, gen int) {
	t.mu.Lock()
	p := t.peers[src]
	lost := p.gen == gen && p.conn != nil
	if lost {
		p.conn.Close()
		p.conn = nil
		p.lostAt = time.Now()
	}
	t.mu.Unlock()
	if lost {
		t.signal()
	}
}

// lostAt reports when the connection to src was lost (zero: it was not).
func (t *TCPRank) lostAt(src int) time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peers[src].lostAt
}

// reader drains frames from one connection into the mailbox of src until
// the connection dies. Each payload is decoded (readVector) into a recycled
// slab; the quantized format's packed bytes go through the reader's own
// reusable scratch.
func (t *TCPRank) reader(src int, c net.Conn, gen int) {
	defer t.wg.Done()
	br := bufio.NewReaderSize(c, 64<<10)
	header := make([]byte, headerLen)
	var packed []byte
	for {
		f, plen, err := readHeader(br, header)
		if err != nil {
			t.dropConn(src, gen)
			return
		}
		if f.Type == FrameHello {
			continue
		}
		data := []float32{} // an empty message is delivered empty, not nil
		if f.Count > 0 {
			data = t.slabs.GetBuf(int(f.Count))
		}
		if packed, err = readVector(br, &f, plen, data, packed); err != nil {
			t.dropConn(src, gen)
			return
		}
		t.recvBytes.Add(int64(headerLen + plen))
		t.recvFrames.Add(1)
		if f.Trace != 0 {
			t.peerTrace.Store(&[2]uint64{f.Trace, f.Span})
		}
		t.push(src, dist.Message{Data: data, Src: src, Tag: int(f.Tag)})
	}
}

// Release hands a payload returned by Recv back for reuse by a later
// receive. It is optional: a payload that is never released is an
// ordinary slice the caller may keep for as long as it likes.
// After Release the caller must not touch the slice again, and must release
// the slice as it was received (not a sub-slice) and at most once. The idle
// slabs kept are bounded (maxIdleSlabBytes, read off the arena's idle-bytes
// counter); beyond that Release drops them.
func (t *TCPRank) Release(data []float32) {
	if t.slabs.FreeBytes() < maxIdleSlabBytes {
		t.slabs.PutBuf(data)
	}
}

// push appends a message to src's mailbox and signals the owner.
func (t *TCPRank) push(src int, m dist.Message) {
	t.inbox.Lock()
	b := &t.inbox.queues[src]
	b.q = append(b.q, m)
	t.inbox.Unlock()
	t.signal()
}

// signal wakes the receiving goroutine, if it is waiting.
func (t *TCPRank) signal() {
	select {
	case t.notify <- struct{}{}:
	default:
	}
}

// dialPeer establishes the connection to a lower rank with bounded
// retry-with-backoff and sends the hello frame.
func (t *TCPRank) dialPeer(dst int) (net.Conn, int, error) {
	addr := t.opt.Peers[dst]
	if addr == "" {
		return nil, 0, fmt.Errorf("transport: rank %d has no address for peer %d", t.opt.ID, dst)
	}
	backoff := t.opt.DialBackoff
	var lastErr error
	for attempt := 0; attempt <= t.opt.DialRetries; attempt++ {
		if t.closed.Load() {
			return nil, 0, fmt.Errorf("transport: rank closed")
		}
		if attempt > 0 {
			t.redials.Add(1)
			select {
			case <-time.After(backoff):
			case <-t.closedCh:
				return nil, 0, fmt.Errorf("transport: rank closed")
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
		}
		c, err := net.DialTimeout("tcp", addr, t.opt.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		hello := Frame{Type: FrameHello, Src: int32(t.opt.ID)}
		c.SetWriteDeadline(time.Now().Add(t.opt.IOTimeout))
		if err := WriteFrame(c, &hello); err != nil {
			c.Close()
			lastErr = err
			continue
		}
		c.SetWriteDeadline(time.Time{})
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		t.install(dst, c)
		t.mu.Lock()
		gen := t.peers[dst].gen
		t.mu.Unlock()
		return c, gen, nil
	}
	return nil, 0, fmt.Errorf("transport: rank %d dialing peer %d at %s: %w (after %d attempts)",
		t.opt.ID, dst, addr, lastErr, t.opt.DialRetries+1)
}

// acquire returns the live connection to dst, dialing (lower peers) or
// awaiting an inbound connection (higher peers) until deadline — or for at
// most reconnectGrace once an established connection has been lost.
func (t *TCPRank) acquire(dst int, deadline time.Time) (net.Conn, int, error) {
	for {
		t.mu.Lock()
		p := t.peers[dst]
		c, gen, lostAt := p.conn, p.gen, p.lostAt
		t.mu.Unlock()
		if c != nil {
			return c, gen, nil
		}
		if dst < t.opt.ID {
			return t.dialPeer(dst)
		}
		// Higher ranks dial us; all we can do is wait for the connection.
		if !lostAt.IsZero() && deadline.After(lostAt.Add(reconnectGrace)) {
			deadline = lostAt.Add(reconnectGrace)
		}
		if time.Now().After(deadline) {
			return nil, 0, fmt.Errorf("transport: peer %d not connected", dst)
		}
		select {
		case <-time.After(10 * time.Millisecond):
		case <-t.closedCh:
			return nil, 0, fmt.Errorf("transport: rank closed")
		}
	}
}

// Send transmits data to dst with a message tag, re-acquiring the
// connection once on write failure. The frame is encoded straight into the
// peer's reusable write buffer (under the write lock, so concurrent senders
// to one peer stay whole-frame atomic); data is not retained. Under
// BestEffortSend an unreachable peer drops the frame; otherwise the failure
// is returned as *NetError. simBytes is a simulator concept and ignored: the
// wire bytes here are real.
func (t *TCPRank) Send(dst, tag int, data []float32, _ int64) error {
	if dst == t.opt.ID || dst < 0 || dst >= t.opt.Size {
		return &NetError{Op: "send", Rank: t.opt.ID, Peer: dst, Err: fmt.Errorf("invalid destination")}
	}
	wait := t.opt.RecvTimeout
	if t.opt.BestEffortSend {
		// A best-effort sender (the parameter server) must not stall its
		// loop on a dead peer: give a reconnecting worker a short grace
		// window, then drop.
		wait = reconnectGrace
	}
	deadline := time.Now().Add(wait)
	var trace, span uint64
	if tc := t.traceCtx.Load(); tc != nil {
		trace, span = tc[0], tc[1]
	}
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		c, gen, err := t.acquire(dst, deadline)
		if err != nil {
			lastErr = err
			break
		}
		p := t.peers[dst]
		p.wmu.Lock()
		p.wbuf = appendVectorFrame(p.wbuf[:0], t.opt.ID, tag, data, t.opt.QuantizeBits, trace, span)
		n := len(p.wbuf)
		c.SetWriteDeadline(time.Now().Add(t.opt.IOTimeout))
		_, werr := c.Write(p.wbuf)
		p.wmu.Unlock()
		if werr == nil {
			t.sentBytes.Add(int64(n))
			t.sentFrames.Add(1)
			return nil
		}
		lastErr = werr
		t.dropConn(dst, gen)
	}
	if t.opt.BestEffortSend {
		t.dropped.Add(1)
		return nil
	}
	return &NetError{Op: "send", Rank: t.opt.ID, Peer: dst, Err: lastErr}
}

// pop dequeues the next message from src, or — when src is AnySource —
// from any source, round-robin fair.
func (t *TCPRank) pop(src int) (dist.Message, bool) {
	t.inbox.Lock()
	defer t.inbox.Unlock()
	if src != dist.AnySource {
		return t.inbox.queues[src].pop()
	}
	for off := 0; off < t.opt.Size; off++ {
		s := (t.inbox.rr + off) % t.opt.Size
		if m, ok := t.inbox.queues[s].pop(); ok {
			t.inbox.rr = (s + 1) % t.opt.Size
			return m, true
		}
	}
	return dist.Message{}, false
}

// Recv blocks for the next message from src (or any source when src is
// dist.AnySource). It returns ctx.Err() when ctx ends first, and a
// *NetError when the rank is closed, when RecvTimeout passes with nothing
// delivered, or — for a single source — when the connection to src has
// been lost for reconnectGrace with every message it delivered consumed.
// An any-source receive outlives one peer's loss: the parameter server
// keeps serving while a restarted worker reconnects.
//
// One timer serves the whole wait and is stopped when it ends, so a
// blocking receive leaves nothing on the timer heap. It is the rank's
// parked timer (see recvTimer) whenever that is free — always, for the
// single receiving goroutine a rank is meant to have; a second concurrent
// waiter just makes its own.
func (t *TCPRank) Recv(ctx context.Context, src int) (dist.Message, error) {
	if src != dist.AnySource && (src < 0 || src >= t.opt.Size || src == t.opt.ID) {
		return dist.Message{}, &NetError{Op: "recv", Rank: t.opt.ID, Peer: src, Err: fmt.Errorf("invalid source")}
	}
	if m, ok := t.pop(src); ok {
		return m, nil
	}
	timeout := t.recvTimer.Swap(nil)
	if timeout == nil {
		timeout = time.NewTimer(t.opt.RecvTimeout)
	} else {
		timeout.Reset(t.opt.RecvTimeout)
	}
	defer t.parkTimer(timeout)
	var grace <-chan time.Time // armed while src's connection is down
	for {
		if grace == nil && src != dist.AnySource {
			if at := t.lostAt(src); !at.IsZero() {
				grace = time.After(time.Until(at.Add(reconnectGrace)))
			}
		}
		select {
		case <-t.notify:
		case <-ctx.Done():
			return dist.Message{}, ctx.Err()
		case <-timeout.C:
			return dist.Message{}, &NetError{Op: "recv", Rank: t.opt.ID, Peer: src,
				Err: fmt.Errorf("no message within %v", t.opt.RecvTimeout)}
		case <-t.closedCh:
			return dist.Message{}, &NetError{Op: "recv", Rank: t.opt.ID, Peer: src,
				Err: fmt.Errorf("rank closed")}
		case <-grace:
			grace = nil
			if m, ok := t.pop(src); ok {
				return m, nil
			}
			if at := t.lostAt(src); !at.IsZero() && time.Since(at) >= reconnectGrace {
				return dist.Message{}, &NetError{Op: "recv", Rank: t.opt.ID, Peer: src,
					Err: fmt.Errorf("connection lost")}
			}
		}
		if m, ok := t.pop(src); ok {
			return m, nil
		}
	}
}

// parkTimer stops the receive timer, drains a tick it may already have
// delivered (Reset needs both), and parks it for the next blocking receive.
func (t *TCPRank) parkTimer(tm *time.Timer) {
	if !tm.Stop() {
		select {
		case <-tm.C:
		default:
		}
	}
	t.recvTimer.Store(tm)
}

// NewLocalWorld builds an n-rank loopback world for tests and the
// single-process simulation mode: n listeners on 127.0.0.1, fully meshed.
// Callers must Close every returned rank. Ranks are constructed
// concurrently because New blocks until its downward dials land.
func NewLocalWorld(n int, tweak func(*Options)) ([]*TCPRank, error) {
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for j := 0; j < i; j++ {
				listeners[j].Close()
			}
			return nil, err
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	ranks := make([]*TCPRank, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opt := Options{ID: i, Size: n, Listener: listeners[i], Peers: addrs}
			if tweak != nil {
				tweak(&opt)
			}
			ranks[i], errs[i] = New(opt)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, r := range ranks {
				if r != nil {
					r.Close()
				}
			}
			return nil, err
		}
	}
	return ranks, nil
}
