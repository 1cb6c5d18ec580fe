package sched

import (
	"math/rand"
	"testing"

	"dmac/internal/matrix"
	"dmac/internal/obs"
)

// TestMulTransMatchesMaterialized checks every transpose combination of
// MulTrans against the materializing reference: transpose the grids first,
// then multiply with the plain kernel.
func TestMulTransMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, combo := range []struct {
		name   string
		aT, bT bool
	}{
		{"NN", false, false},
		{"NT", false, true},
		{"TN", true, false},
		{"TT", true, true},
	} {
		t.Run(combo.name, func(t *testing.T) {
			// Stored shapes so that op(a) is 23x17 and op(b) is 17x19.
			ar, ac := 23, 17
			if combo.aT {
				ar, ac = 17, 23
			}
			br, bc := 17, 19
			if combo.bT {
				br, bc = 19, 17
			}
			a := randGrid(rng, ar, ac, 5, 0.4)
			b := randGrid(rng, br, bc, 5, 1)
			ra, rb := a, b
			if combo.aT {
				ra = ra.Transpose()
			}
			if combo.bT {
				rb = rb.Transpose()
			}
			want, err := matrix.MulGrid(ra, rb)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []MulStrategy{InPlace, Buffer} {
				e := NewExecutor(2, nil)
				got, err := e.MulTrans(a, b, combo.aT, combo.bT, s)
				if err != nil {
					t.Fatalf("strategy %v: %v", s, err)
				}
				if !matrix.GridEqual(got, want, 1e-10) {
					t.Errorf("strategy %v: fused %s product differs from materialized reference", s, combo.name)
				}
			}
		})
	}
}

// TestMulTransShapeErrors: logical (post-transpose) dimensions are what must
// agree.
func TestMulTransShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := randGrid(rng, 6, 4, 2, 1)
	b := randGrid(rng, 6, 5, 2, 1)
	e := NewExecutor(1, nil)
	// a (6x4) * b (6x5) mismatches untransposed but works as t(a)*b.
	if _, err := e.MulTrans(a, b, false, false, InPlace); err == nil {
		t.Error("expected shape error for untransposed mismatch")
	}
	if _, err := e.MulTrans(a, b, true, false, InPlace); err != nil {
		t.Errorf("t(a)*b should be valid: %v", err)
	}
}

// TestMulTransKernelMetrics: a multiply with a registry attached must record
// the kernel counters and the achieved-GFLOPs gauge/histogram, and every
// multiply lands under kernel.strategy.count{strategy="classical"}, so that
// child always equals kernel.mul.count.
func TestMulTransKernelMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randGrid(rng, 20, 20, 5, 1)
	b := randGrid(rng, 20, 20, 5, 1)
	e := NewExecutor(2, nil)
	reg := obs.NewRegistry()
	e.SetObserver(nil, reg)
	for _, s := range []MulStrategy{InPlace, Buffer, InPlace} {
		if _, err := e.MulTrans(a, b, false, true, s); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	muls := snap.Counters["kernel.mul.count"]
	if muls != 3 {
		t.Errorf("kernel.mul.count = %d, want 3", muls)
	}
	if got := snap.Counters["kernel.mul.flops"]; got <= 0 {
		t.Errorf("kernel.mul.flops = %d, want > 0", got)
	}
	if got, ok := snap.Gauges["kernel.mul.gflops"]; !ok || got <= 0 {
		t.Errorf("kernel.mul.gflops gauge = %v (present=%v), want > 0", got, ok)
	}
	cs := snap.CounterVecs["kernel.strategy.count"]
	if len(cs) != 1 || cs[0].Labels["strategy"] != "classical" || cs[0].Value != muls {
		t.Errorf("kernel.strategy.count = %+v, want one classical child equal to kernel.mul.count %d", cs, muls)
	}
	if got, ok := snap.Gauges["kernel.workers"]; !ok || got < 1 {
		t.Errorf("kernel.workers gauge = %v (present=%v), want >= 1", got, ok)
	}
}

// TestBufferPoolBestFit: with two pooled blocks of different capacity, a
// request that fits the smaller one must not consume the larger one.
func TestBufferPoolBestFit(t *testing.T) {
	mem := NewMemTracker()
	p := NewBufferPool(4, mem)
	big := p.Acquire(10, 10)
	small := p.Acquire(4, 4)
	p.Release(big)
	p.Release(small)
	got := p.Acquire(2, 8) // needs 16; small fits exactly
	if cap(got.Data) != 16 {
		t.Errorf("best fit picked cap %d, want 16", cap(got.Data))
	}
	// The big block must still be pooled for a big request.
	big2 := p.Acquire(10, 10)
	if cap(big2.Data) != 100 {
		t.Errorf("large request got cap %d, want pooled 100", cap(big2.Data))
	}
}

// TestBufferPoolAccountingBalance: memory accounting must return to zero
// through any acquire/release/detach sequence, including oversized reuse
// where the logical size is smaller than the backing array.
func TestBufferPoolAccountingBalance(t *testing.T) {
	mem := NewMemTracker()
	p := NewBufferPool(2, mem)
	b1 := p.Acquire(8, 8)
	p.Release(b1)
	// Oversized reuse: logical 2x2 on a 64-slot backing array.
	b2 := p.Acquire(2, 2)
	if cap(b2.Data) != 64 {
		t.Fatalf("expected oversized reuse, got cap %d", cap(b2.Data))
	}
	if got, want := mem.Current(), b2.CapBytes(); got != want {
		t.Errorf("accounted bytes after oversized acquire = %d, want %d", got, want)
	}
	p.Release(b2)
	if got, want := mem.Current(), b2.CapBytes(); got != want {
		t.Errorf("accounted bytes while pooled = %d, want %d", got, want)
	}
	b3 := p.Acquire(8, 8)
	d := p.Detach(b3)
	if d != b3 {
		t.Error("Detach must return the same block")
	}
	if got := mem.Current(); got != 0 {
		t.Errorf("accounted bytes after detach = %d, want 0", got)
	}
	// Dropped release (pool full) must also balance.
	x1, x2, x3 := p.Acquire(3, 3), p.Acquire(3, 3), p.Acquire(3, 3)
	p.Release(x1)
	p.Release(x2)
	p.Release(x3) // dropped: maxIdle = 2
	if got, want := mem.Current(), x1.CapBytes()+x2.CapBytes(); got != want {
		t.Errorf("accounted bytes with full pool = %d, want %d", got, want)
	}
}
