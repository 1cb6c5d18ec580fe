package matrix

import (
	"math/rand"
	"testing"
)

// FuzzMulKernels drives the full multiply surface — serial and parallel
// kernels, every transpose combination, dense and sparse operands — from one
// fuzzed seed and checks each result against the generic oracle. The
// parallel-vs-serial comparison is exact (bit identity is the kernel's
// contract).
func FuzzMulKernels(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed)
	}
	dims := []int{1, 2, 3, 17, 31, 33, 64, 65, 97, 130}
	f.Fuzz(func(t *testing.T, seed int64) {
		defer SetKernelWorkers(SetKernelWorkers(1))
		rng := rand.New(rand.NewSource(seed))
		n := dims[rng.Intn(len(dims))]
		m := dims[rng.Intn(len(dims))]
		p := dims[rng.Intn(len(dims))]
		aT, bT := rng.Intn(2) == 1, rng.Intn(2) == 1
		ar, ac := n, m
		if aT {
			ar, ac = m, n
		}
		br, bc := m, p
		if bT {
			br, bc = p, m
		}
		var a, b Block
		if rng.Intn(4) == 0 {
			a = randSparse(rng, ar, ac, 0.3)
		} else {
			a = randDense(rng, ar, ac)
		}
		if rng.Intn(4) == 0 {
			b = randSparse(rng, br, bc, 0.3)
		} else {
			b = randDense(rng, br, bc)
		}
		want := refMulTrans(a, b, aT, bT)

		SetKernelWorkers(1)
		serial := NewDense(n, p)
		if err := MulAddTransInto(serial, a, b, aT, bT); err != nil {
			t.Fatalf("serial: %v", err)
		}
		if !Equal(serial, want, 1e-9) {
			t.Fatalf("serial kernel differs from oracle (%dx%dx%d aT=%v bT=%v)", n, m, p, aT, bT)
		}

		SetKernelWorkers(2 + rng.Intn(6))
		par := NewDense(n, p)
		if err := MulAddTransInto(par, a, b, aT, bT); err != nil {
			t.Fatalf("parallel: %v", err)
		}
		for i := range par.Data {
			if par.Data[i] != serial.Data[i] {
				t.Fatalf("parallel result not bit-identical to serial (%dx%dx%d aT=%v bT=%v)", n, m, p, aT, bT)
			}
		}
	})
}
