package matrix

import "testing"

// TestMulAlgoString pins both labels of kernel.strategy.count{strategy}.
func TestMulAlgoString(t *testing.T) {
	if MulClassical.String() != "classical" || MulStrassen.String() != "strassen" {
		t.Fatalf("labels = %q, %q; want classical, strassen", MulClassical, MulStrassen)
	}
}
