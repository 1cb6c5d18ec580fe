// Package sched implements DMac's local execution strategy (Section 5.3):
// a block-based executor that splits matrix operations into per-result-block
// tasks, runs them on a fixed pool of worker threads, and recycles result
// blocks through a buffer pool. Two aggregation strategies for block
// multiplication are provided — the paper's In-Place approach and the
// traditional Buffer approach it is compared against in Figure 7.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmac/internal/matrix"
	"dmac/internal/obs"
)

// Executor runs block tasks on a fixed number of local threads. It models
// the per-worker execution flow of Figure 4: a task queue drained by L
// threads, each acquiring result blocks from a shared buffer pool.
type Executor struct {
	parallelism int
	pool        *BufferPool
	mem         *MemTracker
	// tracer and metrics observe task batches when set (see SetObserver);
	// atomic so enabling observability never races with running batches.
	tracer  atomic.Pointer[obs.Tracer]
	metrics atomic.Pointer[obs.Registry]
	// ctx is the cancellation context task batches observe (see SetContext);
	// nil means context.Background(). Atomic for the same reason the
	// observers are.
	ctx atomic.Pointer[context.Context]
}

// NewExecutor creates an executor with the given local parallelism (L in the
// paper). If parallelism <= 0, runtime.NumCPU() is used. The memory tracker
// may be nil, in which case a private one is created.
func NewExecutor(parallelism int, mem *MemTracker) *Executor {
	if parallelism <= 0 {
		parallelism = runtime.NumCPU()
	}
	if mem == nil {
		mem = NewMemTracker()
	}
	return &Executor{
		parallelism: parallelism,
		mem:         mem,
		pool:        NewBufferPool(2*parallelism, mem),
	}
}

// Parallelism returns the number of local threads (L).
func (e *Executor) Parallelism() int { return e.parallelism }

// Mem returns the executor's memory tracker.
func (e *Executor) Mem() *MemTracker { return e.mem }

// Pool returns the executor's result buffer pool.
func (e *Executor) Pool() *BufferPool { return e.pool }

// SetObserver attaches a span tracer and a metrics registry to the
// executor. Every subsequent task batch (ForEach/ForEachErr) emits one
// "sched" span under the tracer's current scope, splitting the batch into
// queue-wait and compute time, and feeds the batch-size histogram. Either
// argument may be nil to disable that half.
func (e *Executor) SetObserver(t *obs.Tracer, m *obs.Registry) {
	e.tracer.Store(t)
	e.metrics.Store(m)
}

// SetContext installs the context every subsequent task batch observes:
// workers check it between tasks, so cancelling it (or its deadline passing)
// aborts a batch at the next task boundary and ForEachErr returns the
// context's error. Tasks already running are allowed to finish — block tasks
// are short, which makes the boundary check a clean and prompt cancellation
// point. A nil context restores context.Background() (never cancelled).
func (e *Executor) SetContext(ctx context.Context) {
	if ctx == nil {
		e.ctx.Store(nil)
		return
	}
	e.ctx.Store(&ctx)
}

// Context returns the context task batches currently observe.
func (e *Executor) Context() context.Context {
	if p := e.ctx.Load(); p != nil {
		return *p
	}
	return context.Background()
}

// ForEach runs fn(i) for i in [0, n) on the executor's threads. It blocks
// until all tasks complete. Tasks are pulled from a shared queue, matching
// the task-queue model of Figure 4.
func (e *Executor) ForEach(n int, fn func(i int)) {
	e.ForEachErr(n, func(i int) error {
		fn(i)
		return nil
	})
}

// ForEachErr runs fn(i) for i in [0, n) on the executor's threads and
// returns the first error any task produced. Once a task fails, remaining
// queued tasks are cancelled (drained without running) — the task-level
// cancellation a failed stage attempt needs so a worker death doesn't
// compute the rest of the stage for nothing. Tasks already running are
// allowed to finish. Workers also observe the executor's context (see
// SetContext) between tasks: a cancelled context aborts the batch the same
// way a failed task does, and its error is returned.
func (e *Executor) ForEachErr(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	ctx := e.Context()
	workers := e.parallelism
	if workers > n {
		workers = n
	}
	// Observability: one span per task batch with a queue-wait vs compute
	// split. A task's queue wait is the time between batch submission and a
	// worker picking it up; its compute time is the fn call itself. The
	// wrapping only happens when a tracer is attached, so the disabled path
	// costs one atomic load.
	if tr := e.tracer.Load(); tr.Enabled() {
		batchStart := time.Now()
		batch := tr.Start("sched", "batch", tr.Scope(),
			obs.Int64("tasks", int64(n)), obs.Int64("workers", int64(workers)))
		var waitNs, computeNs atomic.Int64
		inner := fn
		fn = func(i int) error {
			ts := time.Now()
			waitNs.Add(ts.Sub(batchStart).Nanoseconds())
			err := inner(i)
			computeNs.Add(time.Since(ts).Nanoseconds())
			return err
		}
		defer func() {
			tr.End(batch,
				obs.Float64("queue_wait_s", float64(waitNs.Load())/1e9),
				obs.Float64("compute_s", float64(computeNs.Load())/1e9))
			if m := e.metrics.Load(); m != nil {
				m.Histogram("sched.batch.tasks", obs.TasksBuckets).Observe(float64(n))
				m.Histogram("sched.batch.compute.seconds", obs.SecondsBuckets).Observe(float64(computeNs.Load()) / 1e9)
			}
		}()
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	queue := make(chan int, n)
	for i := 0; i < n; i++ {
		queue <- i
	}
	close(queue)
	var failed atomic.Bool
	var firstErr error
	var errMu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range queue {
				if failed.Load() {
					continue // drain cancelled tasks without running them
				}
				err := ctx.Err()
				if err == nil {
					err = fn(i)
				}
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// MulStrategy selects the local aggregation strategy for blocked matrix
// multiplication.
type MulStrategy int

// The two local multiplication strategies compared in Section 5.3.
const (
	// InPlace packages all block products contributing to one result block
	// into a single task and accumulates them directly into the result
	// block — no intermediate buffers (the DMac default).
	InPlace MulStrategy = iota
	// Buffer parallelizes individual block products, materializes every
	// intermediate product block, and aggregates at the end (the traditional
	// approach; memory-hungry).
	Buffer
)

// String names the strategy.
func (s MulStrategy) String() string {
	switch s {
	case InPlace:
		return "in-place"
	case Buffer:
		return "buffer"
	default:
		return fmt.Sprintf("MulStrategy(%d)", int(s))
	}
}

// Mul multiplies two grids with the chosen aggregation strategy. Both grids
// must share a block size. The result is a dense grid (worst-case sparsity
// of a product is 1, Section 5.1).
func (e *Executor) Mul(a, b *matrix.Grid, strategy MulStrategy) (*matrix.Grid, error) {
	return e.MulTrans(a, b, false, false, strategy)
}

// MulTrans multiplies op(a) * op(b), where op(x) is x or its transpose
// according to the aT/bT flags. Transposition is fused into the block
// kernels: logical block (bi, bk) of a transposed grid is stored block
// (bk, bi) read by stride, so no transposed grid or block is ever
// materialized on the multiply path. Every block product runs the classical
// kernels of matrix.MulAddTransInto. When a metrics registry is attached the
// achieved GFLOPS of the whole multiply is recorded under kernel.mul.*, the
// kernel strategy under kernel.strategy.count{strategy}, and the current
// intra-op parallelism under the kernel.workers gauge.
func (e *Executor) MulTrans(a, b *matrix.Grid, aT, bT bool, strategy MulStrategy) (*matrix.Grid, error) {
	aRows, aCols := gridDims(a, aT)
	bRows, bCols := gridDims(b, bT)
	if aCols != bRows {
		return nil, fmt.Errorf("%w: %dx%d * %dx%d", matrix.ErrShape, aRows, aCols, bRows, bCols)
	}
	if a.BlockSize() != b.BlockSize() {
		return nil, fmt.Errorf("%w: block sizes %d vs %d", matrix.ErrShape, a.BlockSize(), b.BlockSize())
	}
	m := e.metrics.Load()
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	var out *matrix.Grid
	switch strategy {
	case InPlace:
		out = e.mulInPlace(a, b, aT, bT)
	case Buffer:
		out = e.mulBuffer(a, b, aT, bT)
	default:
		return nil, fmt.Errorf("sched: unknown multiplication strategy %d", strategy)
	}
	if m != nil {
		elapsed := time.Since(start).Seconds()
		flops := mulWorkFLOPs(a, b, aCols)
		m.Counter("kernel.mul.count").Inc()
		m.Counter("kernel.mul.flops").Add(int64(flops))
		m.CounterVec("kernel.strategy.count", "strategy").With(matrix.MulClassical.String()).Inc()
		m.Gauge("kernel.workers").Set(float64(matrix.KernelWorkers()))
		if elapsed > 0 && flops > 0 {
			gf := flops / elapsed / 1e9
			m.Gauge("kernel.mul.gflops").Set(gf)
			m.Histogram("kernel.mul.gflops", obs.GFLOPSBuckets).Observe(gf)
		}
	}
	return out, nil
}

// gridDims returns the logical dimensions of op(g).
func gridDims(g *matrix.Grid, t bool) (rows, cols int) {
	if t {
		return g.Cols(), g.Rows()
	}
	return g.Rows(), g.Cols()
}

// mulWorkFLOPs estimates the multiply's floating-point work with the
// sparsity model of Section 5.1: each stored element of a meets roughly
// nnz(b)/inner stored elements of b, at a multiply-add (2 flops) each.
func mulWorkFLOPs(a, b *matrix.Grid, inner int) float64 {
	if inner <= 0 {
		return 0
	}
	per := b.NNZ() / inner
	if per < 1 {
		per = 1
	}
	return 2 * float64(a.NNZ()) * float64(per)
}

// mulInPlace: one task per result block; each task accumulates its full
// inner-dimension sum into a single owned block.
func (e *Executor) mulInPlace(a, b *matrix.Grid, aT, bT bool) *matrix.Grid {
	aRows, _ := gridDims(a, aT)
	_, bCols := gridDims(b, bT)
	out := matrix.NewGrid(aRows, bCols, a.BlockSize())
	brows, bcols := out.BlockRows(), out.BlockCols()
	inner := a.BlockCols()
	if aT {
		inner = a.BlockRows()
	}
	e.ForEach(brows*bcols, func(idx int) {
		bi, bj := idx/bcols, idx%bcols
		r, c := out.BlockDims(bi, bj)
		dst := e.pool.Acquire(r, c)
		for k := 0; k < inner; k++ {
			// Accumulate directly into the result block: no intermediate
			// product blocks exist at any point.
			if err := matrix.MulAddTransInto(dst, gridBlock(a, bi, k, aT), gridBlock(b, k, bj, bT), aT, bT); err != nil {
				panic(err) // shapes were validated by MulTrans
			}
		}
		// The block leaves the pool and becomes part of the result.
		final := e.pool.Detach(dst)
		e.mem.Add(final.CapBytes())
		out.SetBlock(bi, bj, final)
	})
	return out
}

// gridBlock returns the block at logical block coordinates (bi, bj) of
// op(g): the stored block at (bj, bi) when transposed.
func gridBlock(g *matrix.Grid, bi, bj int, t bool) matrix.Block {
	if t {
		return g.Block(bj, bi)
	}
	return g.Block(bi, bj)
}

// mulBuffer: one task per (bi, k, bj) block product; all intermediate blocks
// are buffered and aggregated afterwards.
func (e *Executor) mulBuffer(a, b *matrix.Grid, aT, bT bool) *matrix.Grid {
	aRows, _ := gridDims(a, aT)
	_, bCols := gridDims(b, bT)
	out := matrix.NewGrid(aRows, bCols, a.BlockSize())
	brows, bcols := out.BlockRows(), out.BlockCols()
	inner := a.BlockCols()
	if aT {
		inner = a.BlockRows()
	}
	intermediates := make([]*matrix.DenseBlock, brows*bcols*inner)
	e.ForEach(brows*bcols*inner, func(idx int) {
		bi := idx / (bcols * inner)
		rem := idx % (bcols * inner)
		bj, k := rem/inner, rem%inner
		r, c := out.BlockDims(bi, bj)
		prod := matrix.NewDense(r, c)
		e.mem.Add(prod.MemBytes())
		if err := matrix.MulAddTransInto(prod, gridBlock(a, bi, k, aT), gridBlock(b, k, bj, bT), aT, bT); err != nil {
			panic(err)
		}
		intermediates[idx] = prod
	})
	// Aggregation pass: sum the buffered products per result block.
	e.ForEach(brows*bcols, func(idx int) {
		bi, bj := idx/bcols, idx%bcols
		r, c := out.BlockDims(bi, bj)
		dst := matrix.NewDense(r, c)
		e.mem.Add(dst.MemBytes())
		for k := 0; k < inner; k++ {
			prod := intermediates[(bi*bcols+bj)*inner+k]
			for i, v := range prod.Data {
				dst.Data[i] += v
			}
		}
		out.SetBlock(bi, bj, dst)
	})
	// The intermediates become garbage only after aggregation completes.
	for _, p := range intermediates {
		e.mem.Sub(p.MemBytes())
	}
	return out
}

// Cellwise applies op element-wise to two grids in parallel.
func (e *Executor) Cellwise(op matrix.BinOp, a, b *matrix.Grid) (*matrix.Grid, error) {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.BlockSize() != b.BlockSize() {
		return nil, fmt.Errorf("%w: %dx%d/bs=%d vs %dx%d/bs=%d", matrix.ErrShape,
			a.Rows(), a.Cols(), a.BlockSize(), b.Rows(), b.Cols(), b.BlockSize())
	}
	out := matrix.NewGrid(a.Rows(), a.Cols(), a.BlockSize())
	bcols := a.BlockCols()
	err := e.ForEachErr(a.BlockRows()*bcols, func(idx int) error {
		bi, bj := idx/bcols, idx%bcols
		blk, err := matrix.Cellwise(op, a.Block(bi, bj), b.Block(bi, bj))
		if err != nil {
			return err
		}
		e.mem.Add(blk.MemBytes())
		out.SetBlock(bi, bj, blk)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Scalar applies a block-scalar operation to every block in parallel.
func (e *Executor) Scalar(op matrix.ScalarOp, a *matrix.Grid, c float64) *matrix.Grid {
	out := matrix.NewGrid(a.Rows(), a.Cols(), a.BlockSize())
	bcols := a.BlockCols()
	e.ForEach(a.BlockRows()*bcols, func(idx int) {
		bi, bj := idx/bcols, idx%bcols
		blk := matrix.Scalar(op, a.Block(bi, bj), c)
		e.mem.Add(blk.MemBytes())
		out.SetBlock(bi, bj, blk)
	})
	return out
}

// Apply evaluates a named element-wise function on every block in parallel.
func (e *Executor) Apply(f matrix.UFunc, a *matrix.Grid) *matrix.Grid {
	out := matrix.NewGrid(a.Rows(), a.Cols(), a.BlockSize())
	bcols := a.BlockCols()
	e.ForEach(a.BlockRows()*bcols, func(idx int) {
		bi, bj := idx/bcols, idx%bcols
		blk := matrix.ApplyBlock(f, a.Block(bi, bj))
		e.mem.Add(blk.MemBytes())
		out.SetBlock(bi, bj, blk)
	})
	return out
}

// Transpose transposes a grid in parallel (a purely local operation: this is
// what makes the Transpose dependency communication-free). Each call counts
// against exec.transpose.count when metrics are attached, which is how tests
// verify that the fused multiply path materializes no transposed grid.
func (e *Executor) Transpose(a *matrix.Grid) *matrix.Grid {
	if m := e.metrics.Load(); m != nil {
		m.Counter("exec.transpose.count").Inc()
	}
	out := matrix.NewGrid(a.Cols(), a.Rows(), a.BlockSize())
	bcols := a.BlockCols()
	e.ForEach(a.BlockRows()*bcols, func(idx int) {
		bi, bj := idx/bcols, idx%bcols
		blk := a.Block(bi, bj).Transpose()
		e.mem.Add(blk.MemBytes())
		out.SetBlock(bj, bi, blk)
	})
	return out
}
