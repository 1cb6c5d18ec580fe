package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"dmac/internal/matrix"
)

// Kernel microbenchmarks: single-block multiplication throughput for every
// local kernel path, against the pre-tiling naive kernel as baseline. The
// emitted BENCH_kernels.json is the repository's kernel perf trajectory —
// later PRs regenerate it and diff the numbers.

// KernelPoint is one (kernel, block size) measurement.
type KernelPoint struct {
	// Kernel names the measured path: dd-naive (pre-tiling ikj baseline),
	// dd-tiled, dd-nt / dd-tn (fused transpose GEMM), sd / ds (sparse-dense
	// at ~5% density), dd-par (tiled kernel at Workers kernel workers).
	Kernel string `json:"kernel"`
	// Size is the square block side.
	Size int `json:"size"`
	// Workers is the kernel worker count of a dd-par point; zero elsewhere
	// (those paths are measured at one worker).
	Workers int `json:"workers,omitempty"`
	// Reps is the number of timed repetitions.
	Reps int `json:"reps"`
	// NsPerOp is the mean wall time of one block multiplication.
	NsPerOp float64 `json:"ns_per_op"`
	// GFLOPS is the achieved throughput (effective flops for sparse paths).
	GFLOPS float64 `json:"gflops"`
	// Speedup is the ratio of a baseline's NsPerOp to this point's at the
	// same size: the dd-naive baseline for the dense tiled kernels and the
	// one-worker dd-tiled point for the worker curve.
	Speedup float64 `json:"speedup,omitempty"`
}

// KernelReport is the full microbenchmark output.
type KernelReport struct {
	GoOS   string        `json:"goos"`
	GoArch string        `json:"goarch"`
	NumCPU int           `json:"num_cpu"`
	Points []KernelPoint `json:"points"`
}

// kernelSparsity is the density of the sparse operands in the sd/ds paths.
const kernelSparsity = 0.05

// randDense returns a deterministic random dense block.
func randDense(rng *rand.Rand, n int) *matrix.DenseBlock {
	d := matrix.NewDense(n, n)
	for i := range d.Data {
		d.Data[i] = rng.Float64()*2 - 1
	}
	return d
}

// randSparse returns a deterministic random CSC block at kernelSparsity.
func randSparse(rng *rand.Rand, n int) *matrix.CSCBlock {
	nnz := int(kernelSparsity * float64(n) * float64(n))
	coords := make([]matrix.Coord, 0, nnz)
	for k := 0; k < nnz; k++ {
		coords = append(coords, matrix.Coord{
			Row: rng.Intn(n), Col: rng.Intn(n), Val: rng.Float64()*2 - 1,
		})
	}
	return matrix.NewCSC(n, n, coords)
}

// measure times f adaptively: repetitions are scaled so each measurement
// takes roughly 150 ms of wall time, bounded to [3, 1000] reps. The
// reported figure is the *minimum* repetition, not the mean: scheduler and
// frequency noise is strictly additive, and at block sizes where only a few
// repetitions fit the budget a single preempted rep would otherwise skew
// the point by tens of percent.
func measure(f func()) (nsPerOp float64, reps int) {
	f() // warm-up: page in operands, populate the GEMM buffer pool
	t0 := time.Now()
	f()
	per := time.Since(t0)
	if per <= 0 {
		per = time.Nanosecond
	}
	n := int(150 * time.Millisecond / per)
	if n < 3 {
		n = 3
	}
	if n > 1000 {
		n = 1000
	}
	best := time.Duration(math.MaxInt64)
	for i := 0; i < n; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if best <= 0 {
		best = time.Nanosecond
	}
	return float64(best.Nanoseconds()), n
}

// Kernels runs the kernel microbenchmark suite over the given square block
// sizes and returns the report. The single-path kernels are measured at one
// kernel worker; every count in workerCounts adds a dd-par point per size
// (the multi-core speedup curve). A nil workerCounts measures the worker
// curve at 1 only.
func Kernels(sizes []int, workerCounts []int) *KernelReport {
	if len(workerCounts) == 0 {
		workerCounts = []int{1}
	}
	defer matrix.SetKernelWorkers(matrix.SetKernelWorkers(1))
	rep := &KernelReport{GoOS: runtime.GOOS, GoArch: runtime.GOARCH, NumCPU: runtime.NumCPU()}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n)))
		a := randDense(rng, n)
		b := randDense(rng, n)
		sa := randSparse(rng, n)
		sb := randSparse(rng, n)
		dst := matrix.NewDense(n, n)
		denseFLOPs := 2 * float64(n) * float64(n) * float64(n)
		sparseFLOPs := 2 * float64(sa.NNZ()) * float64(n)
		mulTrans := func(x, y matrix.Block, xT, yT bool) func() {
			return func() {
				dst.Zero()
				if err := matrix.MulAddTransInto(dst, x, y, xT, yT); err != nil {
					panic(err)
				}
			}
		}
		runs := []struct {
			kernel string
			flops  float64
			f      func()
		}{
			{"dd-naive", denseFLOPs, func() {
				dst.Zero()
				matrix.MulAddNaive(dst, a, b)
			}},
			{"dd-tiled", denseFLOPs, mulTrans(a, b, false, false)},
			{"dd-nt", denseFLOPs, mulTrans(a, b, false, true)},
			{"dd-tn", denseFLOPs, mulTrans(a, b, true, false)},
			{"sd", sparseFLOPs, mulTrans(sa, b, false, false)},
			{"ds", 2 * float64(sb.NNZ()) * float64(n), mulTrans(a, sb, false, false)},
		}
		var naiveNs, tiledNs float64
		for _, r := range runs {
			ns, reps := measure(r.f)
			pt := KernelPoint{
				Kernel:  r.kernel,
				Size:    n,
				Reps:    reps,
				NsPerOp: ns,
				GFLOPS:  r.flops / ns,
			}
			switch r.kernel {
			case "dd-naive":
				naiveNs = ns
			case "dd-tiled", "dd-nt", "dd-tn":
				if r.kernel == "dd-tiled" {
					tiledNs = ns
				}
				if naiveNs > 0 && ns > 0 {
					pt.Speedup = naiveNs / ns
				}
			}
			rep.Points = append(rep.Points, pt)
		}
		// Worker curve: the same tiled multiply at each kernel worker count,
		// speedup against the one-worker dd-tiled measurement above.
		for _, wk := range workerCounts {
			matrix.SetKernelWorkers(wk)
			ns, reps := measure(mulTrans(a, b, false, false))
			matrix.SetKernelWorkers(1)
			rep.Points = append(rep.Points, KernelPoint{
				Kernel:  "dd-par",
				Size:    n,
				Workers: wk,
				Reps:    reps,
				NsPerOp: ns,
				GFLOPS:  denseFLOPs / ns,
				Speedup: tiledNs / ns,
			})
		}
	}
	return rep
}

// WriteKernels renders the report as an aligned text table.
func WriteKernels(w io.Writer, r *KernelReport) {
	fmt.Fprintf(w, "Kernel microbenchmarks (%s/%s, %d CPU)\n", r.GoOS, r.GoArch, r.NumCPU)
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		speedup := "-"
		if p.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", p.Speedup)
		}
		workers := "-"
		if p.Workers > 0 {
			workers = fmt.Sprintf("%d", p.Workers)
		}
		rows = append(rows, []string{
			p.Kernel,
			fmt.Sprintf("%d", p.Size),
			workers,
			fmt.Sprintf("%.0f", p.NsPerOp),
			fmt.Sprintf("%.2f", p.GFLOPS),
			speedup,
			fmt.Sprintf("%d", p.Reps),
		})
	}
	writeTable(w, []string{"kernel", "size", "workers", "ns/op", "GFLOPS", "speedup", "reps"}, rows)
}

// WriteJSON writes the report as indented JSON (the BENCH_kernels.json
// artifact format).
func (r *KernelReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
