package dist

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hpcgo/rcsfista/internal/perf"
)

// TCPOptions tunes the TCP transport. The zero value selects the
// defaults, which suit localhost meshes.
type TCPOptions struct {
	// DialTimeout bounds mesh rendezvous: how long a rank retries
	// dialing a peer that has not started listening yet. Default 10s.
	DialTimeout time.Duration
	// WriteTimeout is the per-frame write deadline. A peer that stops
	// draining its socket for this long is declared lost and the
	// world aborts — the transport-level analogue of the fault layer's
	// declared-lost round timeout (DESIGN.md Section 7). Default 30s.
	WriteTimeout time.Duration
	// ReadTimeout, when positive, is a per-connection inactivity
	// deadline on reads. It must exceed the longest compute phase
	// between collectives, so it defaults to 0 (no deadline); set it
	// when a wedged peer should be detected rather than waited on.
	ReadTimeout time.Duration
}

func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 30 * time.Second
	}
	return o
}

// TransportError is the panic/error value raised when the TCP
// substrate fails: a peer vanished, a deadline expired, or a frame was
// malformed. Collectives blocked on the dead transport unwind with it.
type TransportError struct {
	// Rank is the local rank observing the failure.
	Rank int
	// Peer is the rank of the peer the failure was observed on, or -1.
	Peer int
	// Op describes the failing operation ("read", "write", "dial").
	Op string
	// Err is the underlying error.
	Err error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("dist: tcp transport rank %d: %s involving peer %d: %v", e.Rank, e.Op, e.Peer, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// contribSet collects the P-1 remote contributions of one collective
// sequence number at its combining hub.
type contribSet struct {
	bufs  [][]float64
	need  int
	got   int
	ready chan struct{}
}

// tcpPeer is one mesh connection with its write lock and reusable
// encode buffer.
type tcpPeer struct {
	conn net.Conn
	wmu  sync.Mutex
	wbuf []byte
}

// TCPComm is one rank's communicator over a full TCP mesh. Collectives
// are combined in rank order at a designated hub rank (rank 0, or the
// call's root), so results are bit-for-bit identical to the in-process
// channels backend, and every operation charges the same shared
// accounting helpers — same message counts, same word counts. Create
// it through the "tcp" backend (in-process ranks over loopback) or
// Connect (one rank per OS process).
type TCPComm struct {
	rank    int
	size    int
	machine perf.Machine
	cost    perf.Cost
	opts    TCPOptions
	prof    *profile

	peers []*tcpPeer // by rank; peers[rank] is nil
	seq   uint32     // next collective sequence number

	mu       sync.Mutex
	results  map[uint32]chan []float64
	contribs map[uint32]*contribSet
	p2pq     []chan []float64 // per-source FIFO, buffered like the chan backend

	abort    chan struct{}
	abortMu  sync.Mutex
	abortVal any // the panic value waiters unwind with; guarded by abortMu
	closed   atomic.Bool
	wg       sync.WaitGroup
}

var _ Comm = (*TCPComm)(nil)

// newTCPComm wires a communicator over established mesh connections
// (conns[j] connects to rank j; conns[rank] ignored) and starts the
// per-connection reader goroutines.
func newTCPComm(rank, size int, conns []net.Conn, machine perf.Machine, opts TCPOptions, prof *profile) *TCPComm {
	if prof == nil {
		prof = &profile{}
	}
	c := &TCPComm{
		rank: rank, size: size, machine: machine, opts: opts.withDefaults(), prof: prof,
		peers:    make([]*tcpPeer, size),
		results:  make(map[uint32]chan []float64),
		contribs: make(map[uint32]*contribSet),
		p2pq:     make([]chan []float64, size),
		abort:    make(chan struct{}),
	}
	for r := 0; r < size; r++ {
		c.p2pq[r] = make(chan []float64, 64)
		if r == rank {
			continue
		}
		c.peers[r] = &tcpPeer{conn: conns[r]}
		c.wg.Add(1)
		go c.readLoop(r, conns[r])
	}
	return c
}

// Rank returns this process's rank in [0, Size).
func (c *TCPComm) Rank() int { return c.rank }

// Size returns the number of ranks P.
func (c *TCPComm) Size() int { return c.size }

// Cost exposes this rank's accumulated communication/compute cost.
func (c *TCPComm) Cost() *perf.Cost { return &c.cost }

// Machine returns the machine model used for cost accounting.
func (c *TCPComm) Machine() perf.Machine { return c.machine }

// SetMachine swaps the machine model, the hook Calibrate uses to
// replace an assumed profile with the measured one before a solve.
func (c *TCPComm) SetMachine(m perf.Machine) { c.machine = m }

// Close tears the mesh down: connections close, reader goroutines
// drain and exit. Collectives must all have completed on every rank
// first (the usual SPMD contract). Idempotent.
func (c *TCPComm) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, p := range c.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	c.wg.Wait()
	c.abortWith(errAborted)
	return nil
}

// Abort releases every rank goroutine blocked in a collective with the
// errAborted unwind (the in-process worlds' abort protocol) and closes
// the connections. Used by the tcp world when a sibling rank fails.
func (c *TCPComm) Abort() {
	c.closed.Store(true)
	c.abortWith(errAborted)
	for _, p := range c.peers {
		if p != nil {
			p.conn.Close()
		}
	}
}

// abortWith publishes the panic value and releases waiters. The first
// value wins.
func (c *TCPComm) abortWith(val any) {
	c.abortMu.Lock()
	defer c.abortMu.Unlock()
	if c.abortVal == nil {
		c.abortVal = val
		close(c.abort)
	}
}

// fail records a transport failure observed on the connection to peer
// and releases waiters. During a deliberate Close/Abort the error is
// the expected connection teardown and is swallowed.
func (c *TCPComm) fail(peer int, op string, err error) {
	if c.closed.Load() {
		return
	}
	c.abortWith(&TransportError{Rank: c.rank, Peer: peer, Op: op, Err: err})
}

// abortPanic unwinds the calling collective with the published abort
// value.
func (c *TCPComm) abortPanic() {
	c.abortMu.Lock()
	v := c.abortVal
	c.abortMu.Unlock()
	if v == nil {
		v = errAborted
	}
	panic(v)
}

// readLoop drains one mesh connection, demultiplexing frames into the
// result/contribution/point-to-point tables.
func (c *TCPComm) readLoop(peer int, conn net.Conn) {
	defer c.wg.Done()
	br := bufio.NewReaderSize(conn, 1<<16)
	var body []byte // encoded-frame buffer, reused across frames
	for {
		if c.opts.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(c.opts.ReadTimeout))
		}
		var f Frame
		var err error
		f, body, err = readFrame(br, body)
		if err != nil {
			if err == io.EOF {
				// The peer finished its program and closed cleanly
				// between frames; everything it sent is already
				// delivered (TCP flushes before FIN). Ranks finish at
				// different times, so this is the normal shutdown
				// path, not a failure. A peer that dies mid-frame
				// surfaces as io.ErrUnexpectedEOF below instead.
				return
			}
			if !c.closed.Load() {
				c.fail(peer, "read", err)
			}
			return
		}
		switch f.Kind {
		case FrameContrib, FrameContribF32, FrameContribI8:
			c.addContrib(f.Seq, int(f.Rank), f.Payload)
		case FrameResult, FrameResultF32, FrameResultI8:
			c.resultCh(f.Seq) <- f.Payload
		case FrameP2P:
			select {
			case c.p2pq[peer] <- f.Payload:
			case <-c.abort:
				return
			}
		default:
			c.fail(peer, "read", fmt.Errorf("unexpected %d frame mid-stream", f.Kind))
			return
		}
	}
}

// sendTo writes one frame to the peer, serialized per connection.
func (c *TCPComm) sendTo(rank int, f Frame) {
	p := c.peers[rank]
	p.wmu.Lock()
	defer p.wmu.Unlock()
	p.wbuf = AppendFrame(p.wbuf[:0], f)
	p.conn.SetWriteDeadline(time.Now().Add(c.opts.WriteTimeout))
	if _, err := p.conn.Write(p.wbuf); err != nil {
		c.fail(rank, "write", err)
		c.abortPanic()
	}
}

// resultCh returns (creating if needed) the delivery channel for the
// result of collective seq. Buffered: the reader never blocks on it.
func (c *TCPComm) resultCh(seq uint32) chan []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch, ok := c.results[seq]
	if !ok {
		ch = make(chan []float64, 1)
		c.results[seq] = ch
	}
	return ch
}

// waitResult blocks until the hub's result for collective seq arrives.
func (c *TCPComm) waitResult(seq uint32) []float64 {
	ch := c.resultCh(seq)
	take := func(res []float64) []float64 {
		c.mu.Lock()
		delete(c.results, seq)
		c.mu.Unlock()
		return res
	}
	select {
	case res := <-ch:
		return take(res)
	case <-c.abort:
		// Delivered data wins over a concurrent abort: a reader
		// delivers every frame before it can observe the peer's
		// shutdown EOF, so a result present now completed legitimately.
		select {
		case res := <-ch:
			return take(res)
		default:
		}
		c.abortPanic()
		return nil
	}
}

// contribSetFor returns (creating if needed) the contribution set of
// collective seq at this hub.
func (c *TCPComm) contribSetFor(seq uint32) *contribSet {
	c.mu.Lock()
	defer c.mu.Unlock()
	set, ok := c.contribs[seq]
	if !ok {
		set = &contribSet{bufs: make([][]float64, c.size), need: c.size - 1, ready: make(chan struct{})}
		c.contribs[seq] = set
	}
	return set
}

// addContrib records rank's contribution to collective seq.
func (c *TCPComm) addContrib(seq uint32, rank int, payload []float64) {
	set := c.contribSetFor(seq)
	c.mu.Lock()
	set.bufs[rank] = payload
	set.got++
	done := set.got == set.need
	c.mu.Unlock()
	if done {
		close(set.ready)
	}
}

// waitContribs blocks until all P-1 remote contributions for seq have
// arrived, then removes and returns the set.
func (c *TCPComm) waitContribs(seq uint32) *contribSet {
	set := c.contribSetFor(seq)
	select {
	case <-set.ready:
	case <-c.abort:
		// As in waitResult: contributions demultiplexed before the
		// abort fired complete the set legitimately.
		select {
		case <-set.ready:
		default:
			c.abortPanic()
		}
	}
	c.mu.Lock()
	delete(c.contribs, seq)
	c.mu.Unlock()
	return set
}

// Send transmits a copy of msg to rank to (eager, buffered on the
// receiver). Self-sends queue locally, matching the chan backend.
func (c *TCPComm) Send(to int, msg []float64) {
	if to < 0 || to >= c.size {
		panic("dist: Send to invalid rank")
	}
	if to == c.rank {
		cp := make([]float64, len(msg))
		copy(cp, msg)
		select {
		case c.p2pq[c.rank] <- cp:
		case <-c.abort:
			c.abortPanic()
		}
	} else {
		c.sendTo(to, Frame{Kind: FrameP2P, Rank: uint32(c.rank), Payload: msg})
	}
	c.prof.record(kindSend, len(msg))
	chargeP2P(&c.cost, len(msg))
}

// Recv receives the next message sent by rank from. If the transport
// fails while waiting, Recv unwinds instead of deadlocking.
func (c *TCPComm) Recv(from int) []float64 {
	if from < 0 || from >= c.size {
		panic("dist: Recv from invalid rank")
	}
	var msg []float64
	select {
	case msg = <-c.p2pq[from]:
	case <-c.abort:
		select {
		case msg = <-c.p2pq[from]: // delivered before the abort: valid
		default:
			c.abortPanic()
		}
	}
	c.prof.record(kindRecv, len(msg))
	chargeP2P(&c.cost, len(msg))
	return msg
}
