package main

import (
	"sort"
	"sync"
	"time"

	"dmac/internal/obs"
)

// selfSeconds returns, for every span, its duration minus the part covered
// by its direct children: the union of the children's intervals, clipped to
// the parent. Overlapping children (concurrent task batches, say) are not
// double-counted, so a span's self time is never negative.
func selfSeconds(spans []obs.Span) map[obs.SpanID]float64 {
	children := make(map[obs.SpanID][]obs.Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[obs.SpanID]float64, len(spans))
	for _, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[s.ID] {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, end int64
		for _, v := range ivs {
			if v.lo > end {
				end = v.lo
			}
			if v.hi > end {
				covered += v.hi - end
				end = v.hi
			}
		}
		out[s.ID] = float64(s.End-s.Start-covered) / 1e9
	}
	return out
}

// opKinds are the operator kinds engine.op_self_s is reported for. "mul" is
// a compute operator that multiplies (its span carries mul_algo); every
// other compute operator is "compute".
var opKinds = []string{"mul", "compute", "partition", "broadcast", "transpose", "extract", "load", "var", "reference"}

// opKindOf classifies an engine "op" span into one of opKinds.
func opKindOf(s *obs.Span) string {
	if _, ok := s.Attr("mul_algo"); ok {
		return "mul"
	}
	if a, ok := s.Attr("kind"); ok {
		return a.Str
	}
	return "compute"
}

// layerSpans accumulates what the traced run reads from the program's own
// spans: the scheduler's queue-wait/compute split from "sched/batch"
// attributes and operator self time by kind.
type layerSpans struct {
	queueWait float64
	compute   float64
	opSelf    map[string]float64
}

func newLayerSpans() *layerSpans {
	return &layerSpans{opSelf: make(map[string]float64)}
}

// add folds one batch of finished spans into the totals.
func (l *layerSpans) add(spans []obs.Span) {
	self := selfSeconds(spans)
	for i := range spans {
		s := &spans[i]
		switch s.Cat {
		case "sched":
			if a, ok := s.Attr("queue_wait_s"); ok {
				l.queueWait += a.Float
			}
			if a, ok := s.Attr("compute_s"); ok {
				l.compute += a.Float
			}
		case "op":
			l.opSelf[opKindOf(s)] += self[s.ID]
		}
	}
}

// clock records the benchmark's own spans around each call into a layer
// (generator, Bind, Rewrite, Plan, Run, HTTP submit, Service.Wait). It keeps
// the durations by layer name; it is safe for concurrent use.
type clock struct {
	mu  sync.Mutex
	dur map[string][]float64
}

func newClock() *clock { return &clock{dur: make(map[string][]float64)} }

// time runs fn as one span of the named layer and returns its wall seconds.
func (c *clock) time(layer string, fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	sec := time.Since(start).Seconds()
	c.mu.Lock()
	c.dur[layer] = append(c.dur[layer], sec)
	c.mu.Unlock()
	return sec, err
}

// spans returns a copy of the recorded durations of one layer.
func (c *clock) spans(layer string) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.dur[layer]...)
}
