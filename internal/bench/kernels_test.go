package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"dmac/internal/matrix"
)

// TestKernelsSmoke runs the microbenchmark suite at tiny sizes and checks
// report shape: every kernel at every size, speedups on the dense tiled
// paths, a dd-par point per worker count, and a JSON round trip.
func TestKernelsSmoke(t *testing.T) {
	sizes := []int{8, 48}
	workers := []int{1, 2}
	before := matrix.KernelWorkers()
	rep := Kernels(sizes, workers)
	wantKernels := []string{"dd-naive", "dd-tiled", "dd-nt", "dd-tn", "sd", "ds"}
	// Six single-path kernels plus one dd-par point per worker count at each
	// size.
	if got, want := len(rep.Points), len(sizes)*(len(wantKernels)+len(workers)); got != want {
		t.Fatalf("%d points, want %d", got, want)
	}
	seen := map[string]int{}
	for _, p := range rep.Points {
		seen[p.Kernel]++
		if p.NsPerOp <= 0 || p.Reps <= 0 {
			t.Errorf("%s/%d: non-positive timing %v reps %d", p.Kernel, p.Size, p.NsPerOp, p.Reps)
		}
		if p.GFLOPS <= 0 {
			t.Errorf("%s/%d: non-positive GFLOPS", p.Kernel, p.Size)
		}
		switch p.Kernel {
		case "dd-tiled", "dd-nt", "dd-tn", "dd-par":
			if p.Speedup <= 0 {
				t.Errorf("%s/%d: speedup not set", p.Kernel, p.Size)
			}
		default:
			if p.Speedup != 0 {
				t.Errorf("%s/%d: unexpected speedup %v", p.Kernel, p.Size, p.Speedup)
			}
		}
		if p.Kernel == "dd-par" {
			if p.Workers != 1 && p.Workers != 2 {
				t.Errorf("dd-par/%d: unexpected worker count %d", p.Size, p.Workers)
			}
		} else if p.Workers != 0 {
			t.Errorf("%s/%d: unexpected workers %d", p.Kernel, p.Size, p.Workers)
		}
	}
	for _, k := range wantKernels {
		if seen[k] != len(sizes) {
			t.Errorf("kernel %s measured %d times, want %d", k, seen[k], len(sizes))
		}
	}
	if seen["dd-par"] != len(sizes)*len(workers) {
		t.Errorf("dd-par measured %d times, want %d", seen["dd-par"], len(sizes)*len(workers))
	}
	if got := matrix.KernelWorkers(); got != before {
		t.Errorf("Kernels left kernel workers at %d, want the pre-call %d", got, before)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back KernelReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(rep.Points) || back.GoArch != rep.GoArch {
		t.Error("JSON round trip lost data")
	}
	WriteKernels(&buf, rep) // must not panic
}
