package engine

import (
	"strconv"
	"strings"
	"testing"

	"dmac/internal/dist"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/rewrite"
	"dmac/internal/workload"
)

func signatureProgram() *expr.Program {
	p := expr.NewProgram()
	a := p.Var("A", 12, 8, 1)
	b := p.Var("B", 8, 12, 1)
	p.Assign("out", p.Mul(a, b))
	return p
}

// Every program signature must carry the version prefix that encodes both
// the serialization format and the rewrite-rule version. A key recorded by a
// binary with a different rule set (or no prefix at all, as produced before
// the rewriter existed) must miss in a shared PlanCache.
func TestProgramSignatureVersionPrefix(t *testing.T) {
	sig := ProgramSignature(signatureProgram())
	prefix := SignaturePrefix()
	if !strings.HasPrefix(sig, prefix) {
		t.Fatalf("signature %q lacks prefix %q", sig, prefix)
	}
	if !strings.Contains(prefix, "rw") {
		t.Fatalf("prefix %q does not encode the rewrite version", prefix)
	}

	pc := NewPlanCache(8)
	e := New(DMac, dist.Config{Workers: 2}, 4)
	plan, err := e.Plan(signatureProgram())
	if err != nil {
		t.Fatal(err)
	}
	pc.Put(sig, plan)
	if pc.Get(sig) == nil {
		t.Fatal("exact signature missed")
	}
	// A legacy key — the same structure serialized without the version
	// prefix — must not be served.
	legacy := strings.TrimPrefix(sig, prefix)
	if pc.Get(legacy) != nil {
		t.Fatal("un-versioned legacy key hit the cache")
	}
	// Neither must a key minted under a different rewrite-rule version.
	other := "ps1;rw999|" + legacy
	if pc.Get(other) != nil {
		t.Fatal("foreign rewrite-version key hit the cache")
	}
}

// Two engines sharing one PlanCache, one with the rewriter attached and one
// without, must never cross-serve plans: the planSignature embeds whether
// the rewrite pass ran, so the same program yields distinct cache keys.
func TestSharedCacheRewriterIsolation(t *testing.T) {
	const bs = 4
	pc := NewPlanCache(16)

	run := func(withRewriter bool) {
		e := New(DMac, dist.Config{Workers: 2, LocalParallelism: 2}, bs)
		e.SetSharedPlanCache(pc)
		if withRewriter {
			e.SetRewriter(rewrite.New())
		}
		if err := e.Bind("A", workload.DenseRandom(1, 12, 8, bs)); err != nil {
			t.Fatal(err)
		}
		if err := e.Bind("B", workload.DenseRandom(2, 8, 12, bs)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(signatureProgram(), nil); err != nil {
			t.Fatal(err)
		}
	}

	run(false)
	hits0, _, entries0 := pc.Stats()
	if hits0 != 0 {
		t.Fatalf("first run hit an empty cache: %d", hits0)
	}
	run(true)
	hits1, _, entries1 := pc.Stats()
	if hits1 != 0 {
		t.Fatalf("rewriter-on engine was served a rewriter-off plan: %d hits", hits1)
	}
	if entries1 <= entries0 {
		t.Fatalf("rewriter-on run did not add its own entry: %d -> %d", entries0, entries1)
	}
	// A second rewriter-off engine does share the rewriter-off entry.
	run(false)
	hits2, _, _ := pc.Stats()
	if hits2 == 0 {
		t.Fatal("identical rewriter-off engines failed to share a plan")
	}
}

// The planSignature must distinguish rewriter-on from rewriter-off sessions
// directly, independent of any program content.
func TestPlanSignatureEncodesRewriter(t *testing.T) {
	p := signatureProgram()
	off := New(DMac, dist.Config{Workers: 2}, 4)
	on := New(DMac, dist.Config{Workers: 2}, 4)
	on.SetRewriter(rewrite.New())
	if off.planSignature(p) == on.planSignature(p) {
		t.Fatalf("plan signatures identical with and without rewriter: %q", off.planSignature(p))
	}
}

// TestPlanSignatureEncodesKernelConfig: a plan-cache key carries exactly
// the kernel configuration plans depend on. The kernel generation is in
// every program signature; the block size and the kernel worker count are
// not in the session signature, because plan generation reads neither, so
// sessions differing only in those share one signature and get one plan.
func TestPlanSignatureEncodesKernelConfig(t *testing.T) {
	p := signatureProgram()
	if sig := ProgramSignature(p); !strings.Contains(sig, "mk"+strconv.Itoa(matrix.KernelVersion)+"|") {
		t.Fatalf("program signature %q does not carry kernel version %d", sig, matrix.KernelVersion)
	}
	defer matrix.SetKernelWorkers(matrix.SetKernelWorkers(1))
	small := New(DMac, dist.Config{Workers: 2}, 4)
	sig := small.planSignature(p)
	want, err := small.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, kw := range []int{1, 8} {
		matrix.SetKernelWorkers(kw)
		for _, bs := range []int{4, 8} {
			e := New(DMac, dist.Config{Workers: 2}, bs)
			if got := e.planSignature(p); got != sig {
				t.Errorf("bs=%d kw=%d: signature %q, want %q", bs, kw, got, sig)
			}
			got, err := e.Plan(p)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() {
				t.Errorf("bs=%d kw=%d: plan differs:\n%s\nwant:\n%s", bs, kw, got, want)
			}
		}
	}
}

// TestSignaturePrefixEncodesKernelVersion: the shared-cache key prefix must
// carry the multiply-kernel generation so entries from a previous kernel
// generation can never be served.
func TestSignaturePrefixEncodesKernelVersion(t *testing.T) {
	prefix := SignaturePrefix()
	if !strings.Contains(prefix, "mk") {
		t.Fatalf("prefix %q does not encode the kernel version", prefix)
	}
	sig := ProgramSignature(signatureProgram())
	pc := NewPlanCache(8)
	e := New(DMac, dist.Config{Workers: 2}, 4)
	plan, err := e.Plan(signatureProgram())
	if err != nil {
		t.Fatal(err)
	}
	pc.Put(sig, plan)
	// A key minted under a different kernel generation must miss.
	legacy := strings.Replace(sig, prefix, "ps1;rw"+strconv.Itoa(matrix.KernelVersion)+";mk1|", 1)
	if legacy != sig && pc.Get(legacy) != nil {
		t.Fatal("foreign kernel-version key hit the cache")
	}
}
