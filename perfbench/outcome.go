package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outcome is what one run measured and checked.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	correct   bool
	// notes are printed before the result: checks passed, zero reasons,
	// percentile refusals.
	notes []string
}

func newOutcome() *outcome {
	return &outcome{values: make(map[string]float64), correct: true}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// setPercentile sets the p-quantile of xs, or records why it was refused.
// A refused end-to-end percentile makes the run incorrect: it would not
// repeat from run to run.
func (o *outcome) setPercentile(name string, xs []float64, p float64) {
	v, err := percentile(xs, p)
	if err != nil {
		if d, _ := lookupMetric(name); d.endToEnd {
			o.correct = false
		}
		o.notes = append(o.notes, fmt.Sprintf("%s refused: %v", name, err))
		return
	}
	o.set(name, infOr(v))
}

// noteDeciles records the deciles of a latency sample, so a run shows the
// shape of its distribution and not only the reported percentiles.
func (o *outcome) noteDeciles(what string, xs []float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var b strings.Builder
	for d := 0; d <= 10 && len(s) > 0; d++ {
		fmt.Fprintf(&b, " %.4g", s[d*(len(s)-1)/10])
	}
	o.notes = append(o.notes, fmt.Sprintf("%s deciles over %d samples (s):%s", what, len(s), b.String()))
}

// setRatioOfPercentiles sets p50(num)/p50(den), leaving the metric unset
// with a note when either median is refused.
func (o *outcome) setRatioOfPercentiles(name string, num, den []float64) {
	a, err1 := percentile(num, 0.5)
	b, err2 := percentile(den, 0.5)
	if err1 != nil || err2 != nil {
		o.notes = append(o.notes, fmt.Sprintf("%s refused: traced %v, untraced %v", name, err1, err2))
		return
	}
	o.set(name, ratio(a, b))
}

// check runs one output check; a failure counts as a failed operation and
// makes the run incorrect.
func (o *outcome) check(what string, fn func() error) {
	if err := fn(); err != nil {
		o.correct = false
		o.failed++
		o.notes = append(o.notes, fmt.Sprintf("CHECK FAILED %s: %v", what, err))
		return
	}
	o.notes = append(o.notes, "check passed: "+what)
}

// peakRSSMB is the process's high-water resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	// Linux reports ru_maxrss in KiB.
	return float64(ru.Maxrss) * 1024 / 1e6
}

// runtimeSampler tracks the Go runtime over a measuring window: heap and
// goroutine high-water marks (sampled every 20 ms through runtime/metrics,
// which does not stop the world) and allocation and GC pause totals.
type runtimeSampler struct {
	stopCh   chan struct{}
	done     sync.WaitGroup
	heapPeak uint64
	goPeak   uint64
	alloc0   uint64
	pause0   uint64
}

type runtimeStats struct {
	allocMBPerOp, heapPeakMB, gcPausePerOp, goroutinesPeak float64
}

func startRuntimeSampler() *runtimeSampler {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r := &runtimeSampler{stopCh: make(chan struct{}), alloc0: ms.TotalAlloc, pause0: ms.PauseTotalNs}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
	sample := func() {
		metrics.Read(samples)
		if v := samples[0].Value; v.Kind() == metrics.KindUint64 {
			r.heapPeak = max(r.heapPeak, v.Uint64())
		}
		if v := samples[1].Value; v.Kind() == metrics.KindUint64 {
			r.goPeak = max(r.goPeak, v.Uint64())
		}
	}
	sample()
	r.done.Add(1)
	go func() {
		defer r.done.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-r.stopCh:
				sample()
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return r
}

// stop ends sampling and returns the window's statistics, allocation and
// GC pause per operation.
func (r *runtimeSampler) stop(ops int) runtimeStats {
	close(r.stopCh)
	r.done.Wait()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := float64(max(ops, 1))
	return runtimeStats{
		allocMBPerOp:   float64(ms.TotalAlloc-r.alloc0) / 1e6 / n,
		heapPeakMB:     float64(r.heapPeak) / 1e6,
		gcPausePerOp:   float64(ms.PauseTotalNs-r.pause0) / 1e9 / n,
		goroutinesPeak: float64(r.goPeak),
	}
}

func (s runtimeStats) report(oc *outcome) {
	oc.set("runtime.alloc_mb", s.allocMBPerOp)
	oc.set("runtime.heap_peak_mb", s.heapPeakMB)
	oc.set("runtime.gc_pause_s", s.gcPausePerOp)
	oc.set("runtime.goroutines_peak", s.goroutinesPeak)
}
