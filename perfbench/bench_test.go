package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"dmac/internal/obs"
	"dmac/internal/workload"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{99, 0.9, false}, {100, 0.9, true}, {19, 0.5, false}, {20, 0.5, true}, {0, 0.5, false},
	} {
		_, err := percentile(xs(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("percentile(%d samples, %g): err = %v, want ok=%v", c.n, c.p, err, c.ok)
		}
	}
	if v, _ := percentile(xs(100), 0.5); v != 50.5 {
		t.Errorf("p50 of 1..100 = %g, want 50.5", v)
	}
	if v, _ := percentile(xs(100), 0.9); math.Abs(v-90.1) > 1e-12 {
		t.Errorf("p90 of 1..100 = %g, want 90.1", v)
	}
	// A failed operation (+Inf) sorts last and can become the percentile.
	s := xs(100)
	for i := 0; i < 11; i++ {
		s[i] = math.Inf(1)
	}
	if v, _ := percentile(s, 0.9); !math.IsInf(v, 1) {
		t.Errorf("p90 with 11%% failures = %g, want +Inf", v)
	}
	if infOr(math.Inf(1)) != math.MaxFloat64 {
		t.Error("infOr(+Inf) must be the largest finite float")
	}
}

func TestSelfSecondsSyntheticTree(t *testing.T) {
	// run [0,1000) > op [100,600) > two overlapping batches and a grandchild;
	// a second op [600,900) has a child that runs past its end.
	spans := []obs.Span{
		{ID: 1, Start: 0, End: 1000},
		{ID: 2, Parent: 1, Start: 100, End: 600},
		{ID: 3, Parent: 2, Start: 150, End: 300},
		{ID: 4, Parent: 2, Start: 200, End: 400},
		{ID: 5, Parent: 3, Start: 160, End: 290},
		{ID: 6, Parent: 1, Start: 600, End: 900},
		{ID: 7, Parent: 6, Start: 850, End: 1200},
	}
	want := map[obs.SpanID]float64{
		1: 1000 - 500 - 300, // ops cover [100,900)
		2: 500 - 250,        // batches cover [150,400)
		3: 150 - 130,
		4: 200,
		5: 130,
		6: 300 - 50, // child clipped to [850,900)
		7: 350,
	}
	got := selfSeconds(spans)
	for id, ns := range want {
		if math.Abs(got[id]-ns/1e9) > 1e-15 {
			t.Errorf("self(%d) = %g s, want %g s", id, got[id], ns/1e9)
		}
	}
}

func TestOpenLoopTimingFromDue(t *testing.T) {
	kind := jobKind{name: "x", weight: 1}
	arrivals := []arrival{{kind: kind}, {kind: kind}, {kind: kind}, {kind: kind, due: 10 * time.Millisecond}}
	start := time.Now().Add(20 * time.Millisecond)
	const post = 40 * time.Millisecond
	// One client connection, a 40 ms POST: arrivals due together are sent
	// one after another, and the last one is refused.
	timings := runOpenLoop(arrivals, start, 1, func(i int) func() bool {
		time.Sleep(post)
		if i == 3 {
			return nil
		}
		return func() bool { return true }
	})
	for i, tm := range timings {
		if !tm.due.Equal(start.Add(arrivals[i].due)) {
			t.Fatalf("job %d due %v, want %v", i, tm.due, start.Add(arrivals[i].due))
		}
	}
	third := timings[2]
	if third.late() < (2 * post).Seconds() {
		t.Errorf("third job late %g s, want at least %g s behind schedule", third.late(), (2 * post).Seconds())
	}
	// Latency counts from the due time, so the client-side delay is in it.
	if got, min := third.latency(), (3 * post).Seconds(); got < min {
		t.Errorf("third job latency %g s, want at least %g s (measured from due)", got, min)
	}
	if got := third.latency(); math.Abs(got-third.done.Sub(third.due).Seconds()) > 1e-12 {
		t.Errorf("latency %g is not done - due", got)
	}
	if !math.IsInf(timings[3].latency(), 1) {
		t.Errorf("refused job latency %g, want +Inf", timings[3].latency())
	}
}

func TestScheduleDeterministicStratified(t *testing.T) {
	kinds := defaultServeMix().kinds
	a, b := schedule(7, 4, 60, kinds), schedule(7, 4, 60, kinds)
	if len(a) != 60 {
		t.Fatalf("%d arrivals, want 60", len(a))
	}
	for i := range a {
		if a[i].due != b[i].due || a[i].kind.name != b[i].kind.name || a[i].seed != b[i].seed {
			t.Fatalf("arrival %d differs between runs of one seed", i)
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
		if a[i].fresh != (i%freshEvery == freshEvery-1) {
			t.Fatalf("arrival %d fresh=%v", i, a[i].fresh)
		}
	}
	block := 0
	for _, k := range kinds {
		block += k.weight
	}
	for start := 0; start+block <= len(a); start += block {
		count := map[string]int{}
		for _, x := range a[start : start+block] {
			count[x.kind.name]++
		}
		for _, k := range kinds {
			if count[k.name] != k.weight {
				t.Fatalf("block at %d has %d %s, want %d", start, count[k.name], k.name, k.weight)
			}
		}
	}
	if c := schedule(8, 4, 60, kinds); c[1].due == a[1].due {
		t.Error("a different seed gave the same arrival times")
	}
}

func TestCatalogMatchesBenchmarkJSONAndREADME(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, d := range catalog {
		if d.endToEnd {
			e2e = append(e2e, d)
		} else {
			layer = append(layer, d)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, catalog %d", len(got), kind, len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], catalog %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2e)
	check("per_layer", spec.PerLayer, layer)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range catalog {
		name := d.name
		if strings.HasPrefix(name, "engine.stage_wall_s.") {
			name = "engine.stage_wall_s.<n>"
		}
		if !strings.Contains(string(readme), "`"+name+"`") {
			t.Errorf("README.md does not document %s", name)
		}
	}
}

// smokeOptions is a short run: a tiny window; the sample floor still holds.
func smokeOptions(trace bool) options {
	return options{seed: 3, seconds: 0.01, trace: trace}
}

// checkSmoke fails unless the run is correct, every end-to-end metric is
// positive (untraced) and the per-layer metrics every workload has are
// positive (traced).
func checkSmoke(t *testing.T, workload string, oc *outcome, trace bool) {
	t.Helper()
	if !oc.correct || oc.failed != 0 {
		t.Fatalf("%s: correct=%v failed=%d notes=%v", workload, oc.correct, oc.failed, oc.notes)
	}
	want := []string{"sched.compute_s", "workload.gen_s", "core.plan_s", "runtime.alloc_mb", "dist.comm_events"}
	if !trace {
		want = nil
		for _, d := range catalog {
			if d.endToEnd {
				want = append(want, d.name)
			}
		}
	}
	for _, name := range want {
		if oc.values[name] <= 0 {
			t.Errorf("%s: %s = %g, want > 0", workload, name, oc.values[name])
		}
	}
}

func TestSmokeGNMF(t *testing.T) {
	for _, trace := range []bool{false, true} {
		oc, err := runIterative(gnmfWorkload(100, 0.1), smokeOptions(trace))
		if err != nil {
			t.Fatal(err)
		}
		checkSmoke(t, "gnmf", oc, trace)
	}
}

func TestSmokePageRankWire(t *testing.T) {
	for _, trace := range []bool{false, true} {
		oc, err := runIterative(pagerankWorkload(4000), smokeOptions(trace))
		if err != nil {
			t.Fatal(err)
		}
		checkSmoke(t, "pagerank-wire", oc, trace)
		if trace && oc.values["transport.wire_bytes"] <= 0 {
			t.Error("pagerank-wire moved no bytes over the wire")
		}
	}
}

func TestSmokeServeMix(t *testing.T) {
	m := serveMix{
		rate: 100,
		kinds: []jobKind{
			{name: "pagerank", params: workload.Params{"nodes": 64, "degree": 4, "iters": 3}, weight: 3},
			{name: "gram", params: workload.Params{"rows": 96, "cols": 32, "sparsity": 0.1}, weight: 2},
			{name: "blend", params: workload.Params{"n": 48, "k": 8}, weight: 1},
		},
	}
	for _, trace := range []bool{false, true} {
		oc, err := runServeMix(m, smokeOptions(trace))
		if err != nil {
			t.Fatal(err)
		}
		checkSmoke(t, "serve-mix", oc, trace)
	}
}
