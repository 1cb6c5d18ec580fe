package matrix

// KernelVersion identifies the numeric behavior of the multiply kernels. It
// is folded into plan-cache signatures so cached plans never cross-serve
// across kernel generations (v1: serial tiled GEMM; v2: parallel strips plus
// a recursive algorithm on large dense block products; v3: parallel strips,
// every block product on the classical kernels).
const KernelVersion = 3

// MulAlgo is only the label set of the kernel.strategy.count{strategy}
// counter, under which every multiply records MulClassical. It is kept until
// a benchmark change drops the two matrix.strategy_count.* metrics that read
// both labels.
type MulAlgo uint8

const (
	// MulClassical labels the classical tiled and sparse kernels.
	MulClassical MulAlgo = iota
	// MulStrassen labels the removed Strassen recursion; nothing records it.
	MulStrassen
)

func (a MulAlgo) String() string {
	if a == MulStrassen {
		return "strassen"
	}
	return "classical"
}
