package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// refMulTrans is the trusted oracle for the transpose-fused kernels: the
// At-based generic fallback, which shares no code with the specialized paths.
func refMulTrans(a, b Block, aT, bT bool) *DenseBlock {
	n, _ := transDims(a, aT)
	_, p := transDims(b, bT)
	out := NewDense(n, p)
	mulAddGenericTrans(out, a, b, aT, bT)
	return out
}

// gemmDims is the shape pool for the differential fuzz: empty and degenerate
// shapes, sizes straddling the gemmSmall cutoff, non-multiples of the
// micro-tile, and sizes larger than gemmMC so strip boundaries are crossed.
var gemmDims = []int{0, 1, 2, 3, 5, 17, 33, 40, 69, 70}

// TestMulAddTransDifferential fuzzes every kernel path (DD tiled and small,
// SD, DS, SS, each under all four transpose combinations) against the generic
// oracle on random shapes and densities, rotating the kernel worker count so
// the parallel paths see the same shape soup as the serial one.
func TestMulAddTransDifferential(t *testing.T) {
	defer SetKernelWorkers(SetKernelWorkers(1))
	rng := rand.New(rand.NewSource(42))
	mk := func(r, c int, kind int) Block {
		switch kind {
		case 0:
			return randDense(rng, r, c)
		default:
			return randSparse(rng, r, c, []float64{0.05, 0.4, 0.9}[rng.Intn(3)])
		}
	}
	for iter := 0; iter < 400; iter++ {
		n := gemmDims[rng.Intn(len(gemmDims))]
		m := gemmDims[rng.Intn(len(gemmDims))]
		p := gemmDims[rng.Intn(len(gemmDims))]
		aKind, bKind := rng.Intn(2), rng.Intn(2)
		aT, bT := rng.Intn(2) == 1, rng.Intn(2) == 1
		ar, ac := n, m
		if aT {
			ar, ac = m, n
		}
		br, bc := m, p
		if bT {
			br, bc = p, m
		}
		a := mk(ar, ac, aKind)
		b := mk(br, bc, bKind)
		SetKernelWorkers([]int{1, 2, 4}[rng.Intn(3)])
		dst := NewDense(n, p)
		if err := MulAddTransInto(dst, a, b, aT, bT); err != nil {
			t.Fatalf("iter %d (%dx%dx%d aT=%v bT=%v): %v", iter, n, m, p, aT, bT, err)
		}
		want := refMulTrans(a, b, aT, bT)
		if !Equal(dst, want, 1e-9) {
			t.Fatalf("iter %d: kernel (aKind=%d bKind=%d %dx%dx%d aT=%v bT=%v) differs from oracle",
				iter, aKind, bKind, n, m, p, aT, bT)
		}
	}
}

// TestMulAddTransAccumulates verifies the fused kernels accumulate into a
// non-zero destination rather than overwriting it.
func TestMulAddTransAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randDense(rng, 40, 41)
	b := randDense(rng, 42, 41) // b is stored transposed; op(b) is 41x42
	dst := NewDense(40, 42)
	for i := range dst.Data {
		dst.Data[i] = 1
	}
	if err := MulAddTransInto(dst, a, b, false, true); err != nil {
		t.Fatal(err)
	}
	want := refMulTrans(a, b, false, true)
	for i := range want.Data {
		want.Data[i]++
	}
	if !Equal(dst, want, 1e-9) {
		t.Error("fused NT kernel does not accumulate into dst")
	}
}

// TestGemmAVXMatchesGo requires the assembly micro-kernel and the pure-Go
// fallback to be bit-identical: the AVX path uses separate mul/add with the
// scalar kernel's operation order, so every output element must match exactly.
func TestGemmAVXMatchesGo(t *testing.T) {
	if !gemmHaveAVX {
		t.Skip("no AVX support on this machine")
	}
	rng := rand.New(rand.NewSource(99))
	for _, dims := range [][3]int{{40, 40, 40}, {70, 69, 65}, {64, 256, 512}} {
		n, m, p := dims[0], dims[1], dims[2]
		a := randDense(rng, n, m)
		b := randDense(rng, m, p)
		avx := NewDense(n, p)
		if err := MulAddTransInto(avx, a, b, false, false); err != nil {
			t.Fatal(err)
		}
		gemmHaveAVX = false
		goDst := NewDense(n, p)
		err := MulAddTransInto(goDst, a, b, false, false)
		gemmHaveAVX = true
		if err != nil {
			t.Fatal(err)
		}
		for i := range avx.Data {
			if avx.Data[i] != goDst.Data[i] {
				t.Fatalf("%dx%dx%d: AVX and Go kernels differ at %d: %g vs %g",
					n, m, p, i, avx.Data[i], goDst.Data[i])
			}
		}
	}
}

// TestMulAddTransIntoAllocFree verifies the steady-state dense multiply
// allocates nothing: the packing buffers come from the pool. The race
// detector makes sync.Pool drop Puts at random, so the claim, which is about
// the production build, is only asserted without -race.
func TestMulAddTransIntoAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randDense(rng, 96, 96)
	b := randDense(rng, 96, 96)
	dst := NewDense(96, 96)
	if avg := testing.AllocsPerRun(10, func() {
		dst.Zero()
		if err := MulAddTransInto(dst, a, b, false, false); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 && !raceEnabled {
		t.Errorf("dense MulAddTransInto allocates %v times per op, want 0", avg)
	}
}

// TestTransDims covers the logical-shape helper.
func TestTransDims(t *testing.T) {
	b := NewDense(3, 5)
	if r, c := transDims(b, false); r != 3 || c != 5 {
		t.Errorf("transDims(false) = %dx%d", r, c)
	}
	if r, c := transDims(b, true); r != 5 || c != 3 {
		t.Errorf("transDims(true) = %dx%d", r, c)
	}
}

func benchDense(n int, seed int64) *DenseBlock {
	rng := rand.New(rand.NewSource(seed))
	d := NewDense(n, n)
	for i := range d.Data {
		d.Data[i] = rng.Float64()*2 - 1
	}
	return d
}

func benchGemm(b *testing.B, n int, f func(dst, x, y *DenseBlock)) {
	x := benchDense(n, 1)
	y := benchDense(n, 2)
	dst := NewDense(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Zero()
		f(dst, x, y)
	}
	gf := 2 * float64(n) * float64(n) * float64(n) * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gf, "GFLOPS")
}

// BenchmarkMulAddDD measures the tiled dense kernel; compare against
// BenchmarkMulAddDDNaive (the pre-tiling seed kernel) at the same size.
func BenchmarkMulAddDD(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(sizeName(n), func(b *testing.B) {
			benchGemm(b, n, func(dst, x, y *DenseBlock) {
				if err := MulAddTransInto(dst, x, y, false, false); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

func BenchmarkMulAddDDNaive(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(sizeName(n), func(b *testing.B) {
			benchGemm(b, n, func(dst, x, y *DenseBlock) {
				MulAddNaive(dst, x, y)
			})
		})
	}
}

// BenchmarkMulAddDDTransposed measures the fused A^T*B path (reads A by
// stride during packing; no transposed copy).
func BenchmarkMulAddDDTransposed(b *testing.B) {
	for _, n := range []int{256, 512} {
		b.Run(sizeName(n), func(b *testing.B) {
			benchGemm(b, n, func(dst, x, y *DenseBlock) {
				if err := MulAddTransInto(dst, x, y, true, false); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

func sizeName(n int) string {
	return "n" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestGemmPackRoundTrip checks the packing layouts directly: every packed
// element must equal the corresponding op(x) element, with zero padding.
func TestGemmPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randDense(rng, 11, 9)
	for _, aT := range []bool{false, true} {
		rows, cols := transDims(a, aT)
		iw, kw := rows, cols
		buf := make([]float64, ((iw+gemmMR-1)/gemmMR)*gemmMR*kw)
		gemmPackA(buf, a.Data, a.cols, aT, 0, iw, 0, kw)
		at := func(i, k int) float64 {
			if aT {
				return a.At(k, i)
			}
			return a.At(i, k)
		}
		for ip := 0; ip < iw; ip += gemmMR {
			panel := buf[(ip/gemmMR)*gemmMR*kw:]
			for k := 0; k < kw; k++ {
				for r := 0; r < gemmMR; r++ {
					want := 0.0
					if ip+r < iw {
						want = at(ip+r, k)
					}
					if panel[k*gemmMR+r] != want {
						t.Fatalf("aT=%v: packed A panel %d mismatch at k=%d r=%d", aT, ip/gemmMR, k, r)
					}
				}
			}
		}
	}
	b := randDense(rng, 9, 13)
	for _, bT := range []bool{false, true} {
		rows, cols := transDims(b, bT)
		kw, jw := rows, cols
		buf := make([]float64, ((jw+gemmNR-1)/gemmNR)*gemmNR*kw)
		gemmPackB(buf, b.Data, b.cols, bT, 0, kw, 0, jw)
		bt := func(k, j int) float64 {
			if bT {
				return b.At(j, k)
			}
			return b.At(k, j)
		}
		for jp := 0; jp < jw; jp += gemmNR {
			panel := buf[(jp/gemmNR)*gemmNR*kw:]
			for k := 0; k < kw; k++ {
				for c := 0; c < gemmNR; c++ {
					want := 0.0
					if jp+c < jw {
						want = bt(k, jp+c)
					}
					if panel[k*gemmNR+c] != want {
						t.Fatalf("bT=%v: packed B panel %d mismatch at k=%d c=%d", bT, jp/gemmNR, k, c)
					}
				}
			}
		}
	}
}

// TestMulAddDDSmallNaNSafe: the tiled kernel must propagate NaN/Inf like the
// oracle (no zero-branch shortcuts on the dense path).
func TestMulAddDDNaNPropagation(t *testing.T) {
	a := NewDense(40, 40)
	b := NewDense(40, 40)
	a.Set(0, 0, math.NaN())
	b.Set(0, 0, 1)
	dst := NewDense(40, 40)
	if err := MulAddTransInto(dst, a, b, false, false); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(dst.At(0, 0)) {
		t.Error("NaN not propagated through the dense kernel")
	}
}
