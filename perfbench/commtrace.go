package main

import (
	"sync"
	"time"

	"github.com/hpcgo/rcsfista/internal/dist"
	"github.com/hpcgo/rcsfista/internal/perf"
)

// Payload classes of a collective call, told apart by length and op:
// the Hessian batch, a d-vector (gradient refresh, KKT scan), a scalar
// (objective, cancellation consensus) and the OpMax screening bitmap.
const (
	classBatch = iota
	classVector
	classScalar
	classBitmap
	numClasses
)

var classNames = [numClasses]string{"batch", "vector", "scalar", "bitmap"}

// commStats is what one rank's timingComm saw during one World.Run.
type commStats struct {
	calls       [numClasses]int
	f32, i8     int
	collSec     float64
	words, msgs int64
}

// commCounts is the dist layer's tally over traced World.Runs (one
// Run is one solve): counts and words summed over ranks and runs,
// collective time as the sum over runs of the slowest rank's time
// inside collectives.
type commCounts struct {
	calls   [numClasses]int
	f32, i8 int
	collSec float64
	words   int64
	msgs    int64
	runs    int
}

// commTotals is the commCounts every rank of every traced run adds to.
type commTotals struct {
	mu sync.Mutex
	d  int // feature count: a d-length payload is a vector
	c  commCounts
}

func (t *commTotals) add(ranks []*commStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var worst float64
	for _, s := range ranks {
		for c := range s.calls {
			t.c.calls[c] += s.calls[c]
		}
		t.c.f32 += s.f32
		t.c.i8 += s.i8
		t.c.words += s.words
		t.c.msgs += s.msgs
		worst = max(worst, s.collSec)
	}
	t.c.collSec += worst
	t.c.runs++
}

func (t *commTotals) snapshot() commCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.c
}

// reset clears the tally and sets the vector length for what follows.
func (t *commTotals) reset(d int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.d, t.c = d, commCounts{}
}

// tracedWorld runs every rank's Comm through a timingComm and folds
// the per-rank figures into totals when each Run returns. All other
// World methods are the wrapped world's.
type tracedWorld struct {
	dist.World
	totals *commTotals
}

func (w tracedWorld) Run(fn func(c dist.Comm) error) error {
	w.totals.mu.Lock()
	d := w.totals.d
	w.totals.mu.Unlock()
	ranks := make([]*commStats, w.Size())
	for i := range ranks {
		ranks[i] = &commStats{}
	}
	err := w.World.Run(func(c dist.Comm) error {
		return fn(&timingComm{Comm: c, st: ranks[c.Rank()], d: d})
	})
	// World.Run has joined every rank goroutine, so their stats are
	// safe to read here.
	w.totals.add(ranks)
	return err
}

// tracedBackend is a dist backend whose worlds are tracedWorlds over
// another backend; the serving workload selects it by name so the
// server's own solves are traced without changing the server.
type tracedBackend struct {
	name, inner string
	totals      *commTotals
}

func (b tracedBackend) Name() string     { return b.name }
func (b tracedBackend) Supported() error { return nil }
func (b tracedBackend) NewWorld(p int, m perf.Machine) (dist.World, error) {
	w, err := dist.NewWorldOn(b.inner, p, m)
	if err != nil {
		return nil, err
	}
	return tracedWorld{World: w, totals: b.totals}, nil
}

// timingComm forwards every Comm method, and the f32/i8 tier
// capabilities, to the rank's real communicator, counting and timing
// each collective by payload class and tier. Words and messages are
// the wrapped communicator's own cost-counter deltas, so they follow
// each tier's wire format. Nonblocking collectives are timed at post
// only: their cost is charged, and their wait spent, in Request.Wait.
type timingComm struct {
	dist.Comm
	st *commStats
	d  int
}

func (c *timingComm) classOf(n int, op dist.Op) int {
	switch {
	case n == 1:
		return classScalar
	case op == dist.OpMax:
		return classBitmap
	case n == c.d:
		return classVector
	}
	return classBatch
}

// timed runs one collective of class class and charges its duration
// and cost-counter delta.
func (c *timingComm) timed(class int, fn func()) {
	cost := c.Comm.Cost()
	w0, m0 := cost.Words, cost.Messages
	start := time.Now()
	fn()
	c.st.collSec += time.Since(start).Seconds()
	c.st.words += cost.Words - w0
	c.st.msgs += cost.Messages - m0
	c.st.calls[class]++
}

func (c *timingComm) Barrier() { c.timed(classScalar, c.Comm.Barrier) }

func (c *timingComm) Allreduce(buf []float64, op dist.Op) {
	c.timed(c.classOf(len(buf), op), func() { c.Comm.Allreduce(buf, op) })
}

func (c *timingComm) AllreduceShared(local []float64) (out []float64) {
	c.timed(c.classOf(len(local), dist.OpSum), func() { out = c.Comm.AllreduceShared(local) })
	return out
}

func (c *timingComm) IAllreduceShared(local []float64) (req *dist.Request) {
	c.timed(c.classOf(len(local), dist.OpSum), func() { req = c.Comm.IAllreduceShared(local) })
	return req
}

func (c *timingComm) Bcast(buf []float64, root int) {
	c.timed(c.classOf(len(buf), dist.OpSum), func() { c.Comm.Bcast(buf, root) })
}

func (c *timingComm) Reduce(buf []float64, op dist.Op, root int) {
	c.timed(c.classOf(len(buf), op), func() { c.Comm.Reduce(buf, op, root) })
}

func (c *timingComm) Allgather(local []float64) (out []float64) {
	c.timed(c.classOf(len(local), dist.OpSum), func() { out = c.Comm.Allgather(local) })
	return out
}

func (c *timingComm) Send(to int, msg []float64) {
	c.timed(c.classOf(len(msg), dist.OpSum), func() { c.Comm.Send(to, msg) })
}

func (c *timingComm) Recv(from int) (out []float64) {
	c.timed(classBatch, func() { out = c.Comm.Recv(from) })
	return out
}

// SupportsTier reports the wrapped transport's capability, so
// dist.SupportsTier sees through the decorator.
func (c *timingComm) SupportsTier(t dist.Tier) error { return dist.SupportsTier(c.Comm, t) }

func (c *timingComm) AllreduceSharedF32(local []float64) (out []float64) {
	c.st.f32++
	c.timed(c.classOf(len(local), dist.OpSum), func() { out = c.Comm.(dist.F32Allreducer).AllreduceSharedF32(local) })
	return out
}

func (c *timingComm) IAllreduceSharedF32(local []float64) (req *dist.Request) {
	c.st.f32++
	c.timed(c.classOf(len(local), dist.OpSum), func() { req = c.Comm.(dist.F32Allreducer).IAllreduceSharedF32(local) })
	return req
}

func (c *timingComm) AllreduceSharedI8(local []float64) (out []float64) {
	c.st.i8++
	c.timed(c.classOf(len(local), dist.OpSum), func() { out = c.Comm.(dist.I8Allreducer).AllreduceSharedI8(local) })
	return out
}

func (c *timingComm) IAllreduceSharedI8(local []float64) (req *dist.Request) {
	c.st.i8++
	c.timed(c.classOf(len(local), dist.OpSum), func() { req = c.Comm.(dist.I8Allreducer).IAllreduceSharedI8(local) })
	return req
}
