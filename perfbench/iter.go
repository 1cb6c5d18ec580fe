package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"dmac/internal/apps"
	"dmac/internal/dist"
	"dmac/internal/dist/transport"
	"dmac/internal/engine"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/obs"
	"dmac/internal/rewrite"
	"dmac/internal/sched"
	"dmac/internal/workload"
)

const (
	// clusterWorkers and localParallelism are the simulated cluster of
	// dist.ScaledConfig(4, 8), the configuration dmacbench -trace uses.
	clusterWorkers   = 4
	localParallelism = 8
	// gnmfK is the GNMF factor rank.
	gnmfK = 32
	// checkIter is the run (the cold run counts as the first) after which
	// the outputs of gnmf and pagerank-wire are fingerprinted and checked.
	checkIter = 3
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 3
	// minSamples floors the latency samples of a run (warm iterations, or
	// serve arrivals), so latency p90 has at least ten samples beyond it.
	minSamples = 100
	// traceBlock is the number of consecutive warm iterations a traced run
	// spends with the observer attached (then as many without), so traced
	// and untraced samples interleave over the same stretch of time.
	traceBlock = 10
	// maxWindow caps a run's measuring window when the minimum sample count
	// is not reached in time; the percentile helper then refuses.
	maxWindow = 120 * time.Second
)

// iterWorkload is one long engine session run iteration after iteration:
// gnmf and pagerank-wire.
type iterWorkload struct {
	name string
	// scale is the dataset's scale denominator; references are recorded per
	// workload and scale.
	scale     int
	blockSize int
	// wire routes the data plane over loopback TCP to in-process workers.
	wire bool
	// outputs are the session variables the iteration assigns.
	outputs []string
	// generate builds the inputs from the workload seed.
	generate func(seed int64) map[string]*matrix.Grid
	// program builds the iteration program over the generated inputs.
	program func(in map[string]*matrix.Grid) *expr.Program
	// invariant checks the final session outputs.
	invariant func(out map[string]*matrix.Grid) error
}

// subSeed derives the seed of one generator stream from the workload seed,
// so the streams are distinct for every workload seed.
func subSeed(seed int64, stream int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return int64(x & (1<<62 - 1))
}

func sparsityOf(g *matrix.Grid) float64 {
	return float64(g.NNZ()) / (float64(g.Rows()) * float64(g.Cols()))
}

// gnmfWorkload is apps.GNMFIteration on Netflix-shaped ratings at
// 1/scale per dimension and the given density (scale 10 at the Netflix
// density: 1,777 x 48,018 at 1%). The density must leave no row or column
// empty, or the multiplicative update divides 0 by 0.
func gnmfWorkload(scale int, density float64) iterWorkload {
	movies, users := workload.Netflix.Movies/scale, workload.Netflix.Users/scale
	bs := sched.ChooseBlockSize(movies, users, localParallelism, clusterWorkers)
	return iterWorkload{
		name:      "gnmf",
		scale:     scale,
		blockSize: bs,
		outputs:   []string{"W", "H"},
		generate: func(seed int64) map[string]*matrix.Grid {
			spec := workload.Netflix
			spec.Seed, spec.Sparsity = subSeed(seed, 1), density
			_, _, v := spec.Scaled(scale, bs)
			return map[string]*matrix.Grid{
				"V": v,
				"W": workload.DenseRandom(subSeed(seed, 2), v.Rows(), gnmfK, bs),
				"H": workload.DenseRandom(subSeed(seed, 3), gnmfK, v.Cols(), bs),
			}
		},
		program: func(in map[string]*matrix.Grid) *expr.Program {
			v := in["V"]
			return apps.GNMFIteration(v.Rows(), v.Cols(), gnmfK, sparsityOf(v))
		},
		invariant: func(out map[string]*matrix.Grid) error {
			fp := fingerprintOf(out, nil)
			if !fp.finite() {
				return fmt.Errorf("gnmf: factors are not finite")
			}
			for name, st := range fp {
				if st[5] < 0 {
					return fmt.Errorf("gnmf: %s has negative entry %g", name, st[5])
				}
			}
			return nil
		},
	}
}

// pagerankWorkload is apps.PageRankIteration on the soc-pokec stand-in at
// 1/scale nodes (scale 40: 40,820 nodes), over loopback TCP.
func pagerankWorkload(scale int) iterWorkload {
	spec, _ := workload.GraphByName("soc-pokec")
	nodes := spec.ScaledNodes(scale)
	bs := sched.ChooseBlockSize(nodes, nodes, localParallelism, clusterWorkers)
	return iterWorkload{
		name:      "pagerank-wire",
		scale:     scale,
		blockSize: bs,
		wire:      true,
		outputs:   []string{"rank"},
		generate: func(seed int64) map[string]*matrix.Grid {
			gs := spec
			gs.Seed = subSeed(seed, 1)
			g := gs.Generate(scale, bs)
			n := g.Nodes
			rank := workload.DenseRandom(subSeed(seed, 2), 1, n, bs)
			rank = matrix.ScalarGrid(matrix.ScalarMul, rank, 1/matrix.SumGrid(rank))
			d := make([]float64, n)
			for i := range d {
				d[i] = 1 / float64(n)
			}
			return map[string]*matrix.Grid{
				"link": workload.RowNormalize(g.Adjacency),
				"rank": rank,
				"D":    matrix.FromDense(1, n, bs, d),
			}
		},
		program: func(in map[string]*matrix.Grid) *expr.Program {
			link := in["link"]
			return apps.PageRankIteration(link.Rows(), sparsityOf(link))
		},
		invariant: func(out map[string]*matrix.Grid) error {
			// Every node has an out-edge, so the link matrix is row
			// stochastic and the iteration preserves total rank.
			if s := matrix.SumGrid(out["rank"]); !closeRel(s, 1) {
				return fmt.Errorf("pagerank: ranks sum to %.17g, want 1", s)
			}
			return nil
		},
	}
}

// wirePlane is the loopback TCP data plane: in-process transport.Worker
// listeners, set up as dmacbench -chaos-wire does.
type wirePlane struct {
	workers []*transport.Worker
	addrs   []string
	done    chan struct{}
}

func startWirePlane(n int) (*wirePlane, error) {
	p := &wirePlane{done: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		w := transport.NewWorker(transport.WorkerConfig{})
		a, err := w.Listen("127.0.0.1:0")
		if err != nil {
			p.close()
			return nil, fmt.Errorf("wire worker %d: %w", i, err)
		}
		p.workers = append(p.workers, w)
		p.addrs = append(p.addrs, a.String())
		go func() {
			w.Serve()
			p.done <- struct{}{}
		}()
	}
	return p, nil
}

// close stops every worker and waits for its serve loop to return.
func (p *wirePlane) close() {
	for _, w := range p.workers {
		w.Close()
	}
	for range p.workers {
		<-p.done
	}
	p.workers = nil
}

// session is one engine with its bound inputs and program.
type session struct {
	e       *engine.Engine
	inputs  map[string]*matrix.Grid
	inputFP fingerprint
	prog    *expr.Program
}

// refKey names the workload and scale in reference.json.
func (w iterWorkload) refKey() string { return w.name + "/" + strconv.Itoa(w.scale) }

// newEngine builds an engine of the workload's configuration: the DMac
// planner with the rewriter attached, optionally over the wire plane.
func (w iterWorkload) newEngine(addrs []string, rewriter bool) *engine.Engine {
	cfg := dist.ScaledConfig(clusterWorkers, localParallelism)
	cfg.WorkerAddrs = addrs
	e := engine.New(engine.DMac, cfg, w.blockSize)
	if rewriter {
		e.SetRewriter(rewrite.New())
	}
	return e
}

// bind binds the session inputs, timed as the engine.bind layer.
func (s *session) bind(c *clock) error {
	_, err := c.time("engine.bind", func() error {
		for name, g := range s.inputs {
			if err := s.e.Bind(name, g); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// setup generates the inputs, binds them and runs the cold first iteration,
// each call timed as its layer. It returns the session and its wall time.
func (w iterWorkload) setup(c *clock, seed int64, addrs []string) (*session, float64, error) {
	start := time.Now()
	s := &session{}
	c.time("workload.gen", func() error {
		s.inputs = w.generate(seed)
		return nil
	})
	s.prog = w.program(s.inputs)
	s.e = w.newEngine(addrs, true)
	if err := s.bind(c); err != nil {
		s.e.Close()
		return nil, 0, err
	}
	if _, err := c.time("engine.first_run", func() error {
		_, err := s.e.Run(s.prog, nil)
		return err
	}); err != nil {
		s.e.Close()
		return nil, 0, err
	}
	return s, time.Since(start).Seconds(), nil
}

// outputsOf fetches the session's output grids.
func (w iterWorkload) outputsOf(e *engine.Engine) (map[string]*matrix.Grid, error) {
	out := make(map[string]*matrix.Grid, len(w.outputs))
	for _, name := range w.outputs {
		g, ok := e.Grid(name)
		if !ok {
			return nil, fmt.Errorf("%s: no output %q", w.name, name)
		}
		out[name] = g
	}
	return out, nil
}

// reference runs checkIter iterations on a fresh engine over the given
// inputs and returns the fingerprint of the outputs.
func (w iterWorkload) reference(inputs map[string]*matrix.Grid, addrs []string, rewriter bool) (fingerprint, error) {
	s := &session{inputs: inputs, prog: w.program(inputs), e: w.newEngine(addrs, rewriter)}
	defer s.e.Close()
	if err := s.bind(newClock()); err != nil {
		return nil, err
	}
	for i := 0; i < checkIter; i++ {
		if _, err := s.e.Run(s.prog, nil); err != nil {
			return nil, err
		}
	}
	out, err := w.outputsOf(s.e)
	if err != nil {
		return nil, err
	}
	return fingerprintOf(out, nil), nil
}

// runIterative measures one iterative workload: setupReps set-ups, then
// warm iterations for the window, then the output checks.
func runIterative(w iterWorkload, opt options) (*outcome, error) {
	oc := newOutcome()
	c := newClock()
	var addrs []string
	if w.wire {
		plane, err := startWirePlane(clusterWorkers)
		if err != nil {
			return nil, err
		}
		defer plane.close()
		addrs = plane.addrs
	}

	// Each set-up and the window start from a collected heap that no
	// longer holds the previous session, so the process high-water mark
	// does not depend on when the collector last ran.
	var s *session
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if s != nil {
			s.e.Close()
			s = nil
		}
		runtime.GC()
		next, sec, err := w.setup(c, opt.seed, addrs)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		s, setups = next, append(setups, sec)
	}
	defer func() { s.e.Close() }()
	s.inputFP = fingerprintOf(s.inputs, nil)
	oc.attempted += setupReps

	var (
		tracer    *obs.Tracer
		reg       *obs.Registry
		layers    = newLayerSpans()
		untraced  []float64
		traced    []float64
		warm      []engine.Metrics
		overheads []float64
		stageWall = make(map[int][]float64)
		snapshot  fingerprint
	)
	if opt.trace {
		tracer, reg = obs.NewTracer(), obs.NewRegistry()
	}
	hits0, miss0 := s.e.PlanCacheStats()
	runtime.GC()
	rt := startRuntimeSampler()
	window := time.Duration(opt.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		elapsed := time.Since(start)
		if elapsed >= maxWindow || (elapsed >= window && len(warm) >= minSamples) {
			break
		}
		on := opt.trace && (i/traceBlock)%2 == 1
		if on {
			s.e.SetObserver(tracer, reg)
		}
		var m engine.Metrics
		sec, err := c.time("engine.run", func() error {
			var err error
			m, err = s.e.Run(s.prog, nil)
			return err
		})
		if on {
			s.e.SetObserver(nil, nil)
			layers.add(tracer.Spans())
			tracer.Reset()
			traced = append(traced, sec)
		} else {
			untraced = append(untraced, sec)
			var stages float64
			for _, st := range m.PerStage {
				stages += st.WallSeconds
				stageWall[st.Stage] = append(stageWall[st.Stage], st.WallSeconds)
			}
			overheads = append(overheads, sec-stages)
		}
		oc.attempted++
		if err != nil {
			return nil, fmt.Errorf("%s warm run %d: %w", w.name, i+1, err)
		}
		warm = append(warm, m)
		if len(warm) == checkIter-1 {
			out, err := w.outputsOf(s.e)
			if err != nil {
				return nil, err
			}
			snapshot = fingerprintOf(out, nil)
		}
	}
	rtStats := rt.stop(len(warm))
	// The high-water mark is read before the checks, whose reference run
	// would otherwise count in it.
	peakRSS := peakRSSMB()
	hits1, miss1 := s.e.PlanCacheStats()

	// Output checks, outside the window.
	want, recorded, err := recordedReference(w.refKey(), opt.seed)
	if err != nil {
		return nil, err
	}
	if recorded {
		oc.check(fmt.Sprintf("outputs after run %d match the reference recorded for seed %d", checkIter, opt.seed), func() error {
			return want.compare(snapshot)
		})
	} else {
		oc.notes = append(oc.notes, fmt.Sprintf("no reference recorded for seed %d; checked against the isolated run only", opt.seed))
	}
	oc.check("inputs unchanged", func() error {
		return s.inputFP.compare(fingerprintOf(s.inputs, nil))
	})
	oc.check("isolated in-process run without rewriter", func() error {
		ref, err := w.reference(s.inputs, nil, false)
		if err != nil {
			return err
		}
		return ref.compare(snapshot)
	})
	oc.check("final-state invariant", func() error {
		out, err := w.outputsOf(s.e)
		if err != nil {
			return err
		}
		return w.invariant(out)
	})

	warmMed := func(f func(m engine.Metrics) float64) float64 {
		xs := make([]float64, len(warm))
		for i, m := range warm {
			xs[i] = f(m)
		}
		return median(xs)
	}
	if !opt.trace {
		oc.noteDeciles("warm Engine.Run", untraced)
		oc.set("setup_s", median(setups))
		oc.setPercentile("latency_p50_s", untraced, 0.5)
		oc.setPercentile("latency_p90_s", untraced, 0.9)
		oc.set("model_s", warmMed(func(m engine.Metrics) float64 { return m.ModelSeconds }))
		oc.set("comm_bytes", warmMed(func(m engine.Metrics) float64 { return float64(m.CommBytes) }))
		oc.set("peak_rss_mb", peakRSS)
		return oc, nil
	}

	// Per layer.
	oc.notes = append(oc.notes, fmt.Sprintf("%d traced and %d untraced warm iterations", len(traced), len(untraced)))
	for i := 0; i < 5; i++ {
		c.time("rewrite", func() error {
			_, err := rewrite.New().Rewrite(s.prog)
			return err
		})
		c.time("core.plan", func() error {
			_, err := s.e.Plan(s.prog)
			return err
		})
	}
	oc.set("workload.gen_s", median(c.spans("workload.gen")))
	oc.set("engine.bind_s", median(c.spans("engine.bind")))
	oc.set("engine.first_run_s", median(c.spans("engine.first_run")))
	oc.set("rewrite.s", median(c.spans("rewrite")))
	oc.set("core.plan_s", median(c.spans("core.plan")))
	oc.set("engine.plan_cache_hit_ratio", ratio(float64(hits1-hits0), float64(hits1-hits0+miss1-miss0)))
	for st, xs := range stageWall {
		oc.set("engine.stage_wall_s."+strconv.Itoa(st), median(xs))
	}
	oc.set("engine.run_overhead_s", median(overheads))
	oc.set("dist.comm_events", warmMed(func(m engine.Metrics) float64 { return float64(m.CommEvents) }))
	oc.set("dist.broadcasts", warmMed(func(m engine.Metrics) float64 { return float64(m.Broadcasts) }))
	oc.set("dist.shuffles", warmMed(func(m engine.Metrics) float64 { return float64(m.Shuffles) }))
	oc.set("dist.model_compute_s", warmMed(func(m engine.Metrics) float64 { return sumStages(m, true) }))
	oc.set("dist.model_network_s", warmMed(func(m engine.Metrics) float64 { return sumStages(m, false) }))
	wireBytes := warmMed(func(m engine.Metrics) float64 { return float64(m.WireBytes) })
	oc.set("transport.wire_bytes", wireBytes)
	oc.set("transport.wire_frames", warmMed(func(m engine.Metrics) float64 { return float64(m.WireFrames) }))
	oc.set("transport.wire_per_comm", ratio(wireBytes, warmMed(func(m engine.Metrics) float64 { return float64(m.CommBytes) })))
	n := float64(len(traced))
	layers.report(oc, n)
	kernelMetrics(oc, reg, n)
	rtStats.report(oc)
	oc.setRatioOfPercentiles("obs.trace_overhead", traced, untraced)
	return oc, nil
}

// sumStages totals the modelled compute (or network) seconds of a run.
func sumStages(m engine.Metrics, compute bool) float64 {
	var t float64
	for _, st := range m.PerStage {
		if compute {
			t += st.ComputeSeconds
		} else {
			t += st.NetworkSeconds
		}
	}
	return t
}

// report sets the span-derived per-layer metrics, per operation.
func (l *layerSpans) report(oc *outcome, ops float64) {
	if ops == 0 {
		return
	}
	oc.set("sched.queue_wait_s", l.queueWait/ops)
	oc.set("sched.compute_s", l.compute/ops)
	oc.set("sched.wait_per_compute", ratio(l.queueWait, l.compute))
	for _, k := range opKinds {
		oc.set("engine.op_self_s."+k, l.opSelf[k]/ops)
	}
}

// kernelMetrics sets the matrix-layer metrics from the kernel.* entries the
// scheduler feeds into the registry, per operation.
func kernelMetrics(oc *outcome, reg *obs.Registry, ops float64) {
	if reg == nil || ops == 0 {
		return
	}
	oc.set("matrix.mul_count", float64(reg.Counter("kernel.mul.count").Value())/ops)
	oc.set("matrix.mul_flops", float64(reg.Counter("kernel.mul.flops").Value())/ops)
	if h := reg.Histogram("kernel.mul.gflops", obs.GFLOPSBuckets); h.Count() > 0 {
		oc.set("matrix.mul_gflops_p50", h.Quantile(0.5))
	}
	strat := reg.CounterVec("kernel.strategy.count", "strategy")
	for _, algo := range []matrix.MulAlgo{matrix.MulClassical, matrix.MulStrassen} {
		oc.set("matrix.strategy_count."+algo.String(), float64(strat.With(algo.String()).Value())/ops)
	}
}
