package dist

import (
	"context"
	"fmt"
	"math"

	"dmac/internal/dep"
	"dmac/internal/matrix"
	"dmac/internal/obs"
	"dmac/internal/sched"
)

// MulStrategy selects the distributed multiplication strategy of Figure 2.
type MulStrategy int

// The three distributed multiplication strategies.
const (
	// RMM1: A(b) x B(c) -> C(c); each worker multiplies the full replica of
	// A against its column slice of B. No communication during execution.
	RMM1 MulStrategy = iota
	// RMM2: A(r) x B(b) -> C(r).
	RMM2
	// CPMM: A(c) x B(r); worker w computes the partial product of its
	// column slice of A with its row slice of B, and the partials are
	// shuffled and summed into the requested output scheme (cost N x |C|).
	CPMM
)

// String names the strategy.
func (s MulStrategy) String() string {
	switch s {
	case RMM1:
		return "RMM1"
	case RMM2:
		return "RMM2"
	case CPMM:
		return "CPMM"
	default:
		return fmt.Sprintf("MulStrategy(%d)", int(s))
	}
}

// mulFLOPs estimates the arithmetic of a product from the operands' actual
// non-zero structure. Dimensions are logical, so transpose views cost the
// same as their materialized counterparts.
func mulFLOPs(a, b *DistMatrix) float64 {
	an, bn := float64(a.Grid.NNZ()), float64(b.Grid.NNZ())
	inner := float64(a.Cols())
	if inner == 0 {
		return 0
	}
	// 2 multiply-adds per (nnz_A, matching row of B) pair; for sparse B the
	// matching density is nnz_B / inner per column of A.
	perRowB := bn / inner
	return 2 * an * math.Max(perRowB, 1)
}

// Multiply runs a distributed multiplication with the given strategy; the
// strategy decides how blocks move, and every worker computes its block
// products with the classical block kernels. The operand schemes must match
// the strategy's requirements; the output scheme for CPMM is outScheme (Row
// or Col), ignored for RMM1/RMM2.
func (c *Cluster) Multiply(ctx context.Context, a, b *DistMatrix, strategy MulStrategy, outScheme dep.Scheme, stage int) (*DistMatrix, error) {
	var want [2]dep.Scheme
	switch strategy {
	case RMM1:
		want = [2]dep.Scheme{dep.Broadcast, dep.Col}
	case RMM2:
		want = [2]dep.Scheme{dep.Row, dep.Broadcast}
	case CPMM:
		want = [2]dep.Scheme{dep.Col, dep.Row}
	default:
		return nil, fmt.Errorf("dist: unknown multiplication strategy %d", strategy)
	}
	if a.Scheme != want[0] || b.Scheme != want[1] {
		return nil, fmt.Errorf("dist: %s requires schemes (%s,%s), got (%s,%s)",
			strategy, want[0], want[1], a.Scheme, b.Scheme)
	}
	c.addFLOPs(stage, mulFLOPs(a, b))
	if err := c.opFault(); err != nil {
		return nil, err
	}
	// Transpose views are fused into the multiply kernels: the stored grids
	// are read by stride, no transposed copy is allocated.
	grid, err := c.exec.MulTrans(a.Grid, b.Grid, a.trans, b.trans, sched.InPlace)
	if err != nil {
		return nil, err
	}
	out := &DistMatrix{Grid: grid}
	switch strategy {
	case RMM1:
		out.Scheme = dep.Col
	case RMM2:
		out.Scheme = dep.Row
	case CPMM:
		if outScheme != dep.Row && outScheme != dep.Col {
			return nil, fmt.Errorf("dist: CPMM output scheme %s", outScheme)
		}
		// Shuffled aggregation of the per-worker partial products, across
		// the workers still alive: every alive worker ships its partial of
		// each output block to the block's owner.
		workers := int64(c.AliveWorkers())
		out.Scheme = outScheme
		wire, werr := c.transport.Scatter(ctx, "cpmm-shuffle", stage, c.scatterXfers(out, int(workers)))
		if err := c.commFailure(werr, stage); err != nil {
			return nil, err
		}
		c.net.AddComm(stage, workers*out.Bytes())
		c.traceComm(stage, "cpmm-shuffle", workers*out.Bytes(),
			obs.String("strategy", "CPMM"), obs.String("to_scheme", outScheme.String()),
			obs.Int64("workers", workers))
		c.verifyTransfer(out, stage, "cpmm-shuffle")
		c.chargeWire(stage, "cpmm-shuffle", wire)
	}
	return out, nil
}

// Cellwise runs a cell-wise binary operator on two identically-placed
// matrices; no communication.
func (c *Cluster) Cellwise(op matrix.BinOp, a, b *DistMatrix) (*DistMatrix, error) {
	if a.Scheme != b.Scheme {
		return nil, fmt.Errorf("dist: cellwise on mismatched schemes %s vs %s", a.Scheme, b.Scheme)
	}
	if !a.Scheme.Valid() {
		return nil, fmt.Errorf("dist: cellwise on scheme %s", a.Scheme)
	}
	if err := c.opFault(); err != nil {
		return nil, err
	}
	c.addFLOPs(c.stage(), float64(a.Rows())*float64(a.Cols()))
	// Cell-wise ops commute with transposition: two views in the same
	// orientation combine on their stored grids and stay a view. Mixed
	// orientations force the view side to materialize first.
	if a.trans != b.trans {
		c.MaterializedGrid(a)
		c.MaterializedGrid(b)
	}
	grid, err := c.exec.Cellwise(op, a.Grid, b.Grid)
	if err != nil {
		return nil, err
	}
	return &DistMatrix{Grid: grid, Scheme: a.Scheme, trans: a.trans}, nil
}

// Scalar runs a matrix-scalar operator; the scheme is preserved and no
// communication happens.
func (c *Cluster) Scalar(op matrix.ScalarOp, a *DistMatrix, v float64) (*DistMatrix, error) {
	if !a.Scheme.Valid() {
		return nil, fmt.Errorf("dist: scalar op on scheme %s", a.Scheme)
	}
	if err := c.opFault(); err != nil {
		return nil, err
	}
	c.addFLOPs(c.stage(), float64(a.Grid.NNZ()))
	// Scalar ops are element-local, so a transpose view passes through.
	return &DistMatrix{Grid: c.exec.Scalar(op, a.Grid, v), Scheme: a.Scheme, trans: a.trans}, nil
}

// Apply evaluates a named element-wise function locally; the scheme is
// preserved and no communication happens.
func (c *Cluster) Apply(f matrix.UFunc, a *DistMatrix) (*DistMatrix, error) {
	if !a.Scheme.Valid() {
		return nil, fmt.Errorf("dist: ufunc on scheme %s", a.Scheme)
	}
	if err := c.opFault(); err != nil {
		return nil, err
	}
	c.addFLOPs(c.stage(), 4*float64(a.Rows())*float64(a.Cols())) // transcendental-ish cost
	// Element-wise functions commute with transposition as well.
	return &DistMatrix{Grid: c.exec.Apply(f, a.Grid), Scheme: a.Scheme, trans: a.trans}, nil
}

// collect charges a tiny driver collect (8 bytes per alive worker) for an
// aggregate operator; on the wire it gathers one aggregate frame per alive
// worker.
func (c *Cluster) collect(ctx context.Context, stage int) error {
	wire, err := c.transport.Collect(ctx, stage, c.aliveList())
	if err := c.commFailure(err, stage); err != nil {
		return err
	}
	bytes := 8 * int64(c.AliveWorkers())
	c.net.AddComm(stage, bytes)
	c.traceComm(stage, "collect", bytes)
	c.chargeWire(stage, "collect", wire)
	return nil
}

// Sum computes the sum of all cells: local partials plus a tiny driver
// collect (8 bytes per alive worker).
func (c *Cluster) Sum(ctx context.Context, a *DistMatrix, stage int) (float64, error) {
	c.addFLOPs(stage, float64(a.Grid.NNZ()))
	if err := c.collect(ctx, stage); err != nil {
		return 0, err
	}
	return matrix.SumGrid(a.Grid), nil
}

// Norm2 computes the Frobenius norm with the same collect cost as Sum.
func (c *Cluster) Norm2(ctx context.Context, a *DistMatrix, stage int) (float64, error) {
	c.addFLOPs(stage, 2*float64(a.Grid.NNZ()))
	if err := c.collect(ctx, stage); err != nil {
		return 0, err
	}
	return math.Sqrt(matrix.FrobeniusSqGrid(a.Grid)), nil
}

// Value extracts the single cell of a 1x1 matrix at the driver.
func (c *Cluster) Value(ctx context.Context, a *DistMatrix, stage int) (float64, error) {
	if a.Rows() != 1 || a.Cols() != 1 {
		return 0, fmt.Errorf("dist: value() on %dx%d matrix", a.Rows(), a.Cols())
	}
	if err := c.opFault(); err != nil {
		return 0, err
	}
	if err := c.collect(ctx, stage); err != nil {
		return 0, err
	}
	return a.Grid.At(0, 0), nil
}
