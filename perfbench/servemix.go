package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dmac/internal/dist"
	"dmac/internal/engine"
	"dmac/internal/matrix"
	"dmac/internal/obs"
	"dmac/internal/rewrite"
	"dmac/internal/serve"
	"dmac/internal/workload"
)

// serveMix is the open-loop serve workload's configuration.
type serveMix struct {
	// rate is the offered load in jobs per second.
	rate  float64
	kinds []jobKind
}

// serveBlockSize, serveSlots, serveQueue and serveQuota are dmacserve's
// shipped defaults (-block, -slots, -queue, -tenant-*; -workers 4).
const (
	serveBlockSize = 64
	serveSlots     = 2
	serveQueue     = 32
)

var serveQuota = serve.TenantQuota{MaxConcurrent: 2, MaxQueued: 8, MaxBytes: 256 << 20}

// defaultServeMix is the measured serve-mix workload.
func defaultServeMix() serveMix {
	return serveMix{
		rate: 4,
		kinds: []jobKind{
			{name: "pagerank", params: workload.Params{"nodes": 4096, "degree": 8, "iters": 30}, weight: 1},
			{name: "gram", params: workload.Params{"rows": 2048, "cols": 256, "sparsity": 0.05}, weight: 1},
			{name: "blend", params: workload.Params{"n": 512, "k": 512}, weight: 1},
		},
	}
}

// front is the service behind its HTTP handler on a loopback listener,
// with a client that holds at most clients connections.
type front struct {
	svc    *serve.Service
	reg    *obs.Registry
	srv    *http.Server
	served chan error
	client *http.Client
	url    string
}

func startFront(clients int) (*front, error) {
	reg := obs.NewRegistry()
	svc, err := serve.NewService(serve.Options{
		Planner:         engine.DMac,
		Cluster:         dist.ScaledConfig(clusterWorkers, localParallelism),
		BlockSize:       serveBlockSize,
		Slots:           serveSlots,
		QueueCapacity:   serveQueue,
		DefaultQuota:    serveQuota,
		DefaultDeadline: 30 * time.Second,
		Metrics:         reg,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Stop(context.Background())
		return nil, err
	}
	f := &front{
		svc:    svc,
		reg:    reg,
		srv:    &http.Server{Handler: svc.Handler()},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
		}},
		url: "http://" + ln.Addr().String() + "/v1/jobs",
	}
	go func() { f.served <- f.srv.Serve(ln) }()
	return f, nil
}

// submit POSTs one job and returns its accepted status, or ok=false when
// the service refused it.
func (f *front) submit(a arrival) (serve.JobStatus, bool, error) {
	body, err := json.Marshal(serve.SubmitRequest{Tenant: a.tenant, Workload: a.kind.name, Params: a.params()})
	if err != nil {
		return serve.JobStatus{}, false, err
	}
	resp, err := f.client.Post(f.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.JobStatus{}, false, err
	}
	defer resp.Body.Close()
	var jr serve.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return serve.JobStatus{}, false, err
	}
	return jr.JobStatus, resp.StatusCode == http.StatusAccepted, nil
}

// stop drains the service, shuts the listener and waits for the server.
func (f *front) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.svc.Stop(ctx)
	if serr := f.srv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	f.client.CloseIdleConnections()
	return err
}

// prime starts a fresh service and runs one job of every kind to
// completion: cold job and plan caches, as after a deploy.
func (m serveMix) prime(seed int64, clients int) (*front, float64, error) {
	start := time.Now()
	f, err := startFront(clients)
	if err != nil {
		return nil, 0, err
	}
	var ids []string
	for i, k := range m.kinds {
		a := arrival{kind: k, tenant: "tenant-" + string(rune('a'+i%tenants)), seed: 1 + subSeed(seed, 11)%999_983}
		st, ok, err := f.submit(a)
		if err == nil && !ok {
			err = fmt.Errorf("priming %s refused: %s", k.name, st.Error)
		}
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		st, err := f.svc.Wait(context.Background(), id)
		if err == nil && st.State != serve.StateDone {
			err = fmt.Errorf("priming job %s: %s %s", id, st.State, st.Error)
		}
		if err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	return f, time.Since(start).Seconds(), nil
}

// kernelCounters is a reading of the kernel.* registry counters.
type kernelCounters struct{ count, flops, classical, strassen int64 }

func readKernelCounters(reg *obs.Registry) kernelCounters {
	strat := reg.CounterVec("kernel.strategy.count", "strategy")
	return kernelCounters{
		count:     reg.Counter("kernel.mul.count").Value(),
		flops:     reg.Counter("kernel.mul.flops").Value(),
		classical: strat.With(matrix.MulClassical.String()).Value(),
		strassen:  strat.With(matrix.MulStrassen.String()).Value(),
	}
}

// servedJob is what the client keeps of one accepted job.
type servedJob struct {
	arrival
	id     string
	status serve.JobStatus
}

// isolated is an isolated run of one (kind, params) on a fresh engine.
type isolated struct {
	fp                           fingerprint
	metrics                      engine.Metrics
	genSec, bindSec, firstRunSec float64
}

// isolatedRun builds the job and runs it on a fresh engine configured as a
// service slot (DMac, rewriter attached), outside the timed window.
func isolatedRun(reg *workload.Registry, name string, params workload.Params) (*isolated, error) {
	out := &isolated{}
	start := time.Now()
	b, err := reg.Build(name, serveBlockSize, params)
	if err != nil {
		return nil, err
	}
	out.genSec = time.Since(start).Seconds()
	e := engine.New(engine.DMac, dist.ScaledConfig(clusterWorkers, localParallelism), serveBlockSize)
	defer e.Close()
	e.SetRewriter(rewrite.New())
	start = time.Now()
	for n, g := range b.Inputs {
		if err := e.Bind(n, g); err != nil {
			return nil, err
		}
	}
	out.bindSec = time.Since(start).Seconds()
	for i := 0; i < b.Iterations; i++ {
		start = time.Now()
		m, err := e.Run(b.Program, params)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			out.firstRunSec = time.Since(start).Seconds()
		}
		out.metrics.Add(m)
	}
	grids := make(map[string]*matrix.Grid)
	for _, n := range b.Outputs {
		g, ok := e.Grid(n)
		if !ok {
			return nil, fmt.Errorf("%s: no output %q", name, n)
		}
		grids[n] = g
	}
	scalars := make(map[string]float64)
	for _, n := range b.Scalars {
		if v, ok := e.Scalar(n); ok {
			scalars[n] = v
		}
	}
	out.fp = fingerprintOf(grids, scalars)
	return out, nil
}

// runServeMix measures the open loop: setupReps primed services, Poisson
// arrivals POSTed through the handler, completion from Service.Wait, then
// every finished job checked against an isolated run.
func runServeMix(m serveMix, opt options) (*outcome, error) {
	oc := newOutcome()
	c := newClock()
	clients := runtime.NumCPU()

	// As in runIterative, each set-up and the window start from a collected
	// heap.
	var f *front
	var setups []float64
	for r := 0; r < setupReps; r++ {
		if f != nil {
			if err := f.stop(); err != nil {
				return nil, err
			}
			f = nil
		}
		runtime.GC()
		next, sec, err := m.prime(opt.seed, clients)
		if err != nil {
			return nil, fmt.Errorf("serve-mix setup: %w", err)
		}
		f, setups = next, append(setups, sec)
	}
	stopped := false
	defer func() {
		if !stopped {
			f.stop()
		}
	}()

	n := max(minSamples, int(m.rate*opt.seconds+0.5))
	arrivals := schedule(opt.seed, m.rate, n, m.kinds)
	jobs := make([]servedJob, n)
	layers := newLayerSpans()
	var mu sync.Mutex
	var traceErr error
	plan0 := [2]int64{f.reg.Counter("plan.cache.hits").Value(), f.reg.Counter("plan.cache.misses").Value()}
	k0 := readKernelCounters(f.reg)
	stats0 := f.svc.Stats()
	runtime.GC()
	rt := startRuntimeSampler()
	timings := runOpenLoop(arrivals, time.Now().Add(10*time.Millisecond), clients, func(i int) func() bool {
		a := arrivals[i]
		var st serve.JobStatus
		var ok bool
		c.time("serve.submit", func() error {
			var err error
			st, ok, err = f.submit(a)
			if err != nil {
				st.Error, ok = err.Error(), false
			}
			return err
		})
		jobs[i] = servedJob{arrival: a, id: st.ID, status: st}
		if !ok {
			return nil
		}
		return func() bool {
			var fin serve.JobStatus
			_, err := c.time("serve.wait", func() error {
				var err error
				fin, err = f.svc.Wait(context.Background(), st.ID)
				return err
			})
			jobs[i].status = fin
			if err != nil || fin.State != serve.StateDone {
				return false
			}
			if opt.trace {
				spans, err := f.svc.JobTrace(st.ID)
				mu.Lock()
				if err != nil {
					traceErr = err
				}
				layers.add(spans)
				mu.Unlock()
			}
			return true
		}
	})
	rtStats := rt.stop(n)
	// The high-water mark is read before the checks, whose isolated runs
	// would otherwise count in it.
	peakRSS := peakRSSMB()
	stats := f.svc.Stats()
	plan1 := [2]int64{f.reg.Counter("plan.cache.hits").Value(), f.reg.Counter("plan.cache.misses").Value()}
	k1 := readKernelCounters(f.reg)
	if traceErr != nil {
		return nil, fmt.Errorf("serve-mix job trace: %w", traceErr)
	}

	// Fingerprint every finished job's result, then stop the service.
	served := make(map[string]fingerprint)
	var done []servedJob
	var latencies, lates, submits []float64
	for i, t := range timings {
		latencies = append(latencies, t.latency())
		lates = append(lates, t.late())
		submits = append(submits, t.posted.Sub(t.sent).Seconds())
		j := jobs[i]
		if !t.ok {
			oc.failed++
			oc.notes = append(oc.notes, fmt.Sprintf("job %d (%s) not done: %s %s", i, j.kind.name, j.status.State, j.status.Error))
			continue
		}
		res, err := f.svc.Result(j.id)
		if err != nil {
			return nil, err
		}
		served[j.id] = fingerprintOf(res.Grids, res.Scalars)
		done = append(done, j)
	}
	oc.attempted = n
	stopped = true
	if err := f.stop(); err != nil {
		return nil, err
	}

	// Isolated runs of every distinct (kind, params), outside the window.
	reg := workload.DefaultRegistry()
	refs := make(map[string]*isolated)
	for _, j := range done {
		key := j.kind.name + "?" + j.params().Key()
		if refs[key] != nil {
			continue
		}
		ref, err := isolatedRun(reg, j.kind.name, j.params())
		if err != nil {
			return nil, fmt.Errorf("isolated %s: %w", key, err)
		}
		refs[key] = ref
	}
	var mismatched int
	for _, j := range done {
		ref := refs[j.kind.name+"?"+j.params().Key()]
		if err := ref.fp.compare(served[j.id]); err != nil {
			mismatched++
			oc.notes = append(oc.notes, fmt.Sprintf("job %s (%s seed %d): %v", j.id, j.kind.name, j.seed, err))
		}
	}
	oc.check(fmt.Sprintf("%d finished jobs match isolated runs (%d distinct)", len(done), len(refs)), func() error {
		if mismatched > 0 {
			oc.failed += mismatched - 1
			return fmt.Errorf("%d jobs differ from their isolated run", mismatched)
		}
		return nil
	})

	perJob := func(f func(j servedJob, ref *isolated) float64) float64 {
		var t float64
		for _, j := range done {
			t += f(j, refs[j.kind.name+"?"+j.params().Key()])
		}
		return ratio(t, float64(len(done)))
	}
	oc.notes = append(oc.notes, fmt.Sprintf("%d jobs from %d arrivals at %.3g/s", len(done), n, m.rate))
	if !opt.trace {
		oc.noteDeciles("job latency", latencies)
		oc.set("setup_s", median(setups))
		oc.setPercentile("latency_p50_s", latencies, 0.5)
		oc.setPercentile("latency_p90_s", latencies, 0.9)
		oc.set("model_s", perJob(func(_ servedJob, r *isolated) float64 { return r.metrics.ModelSeconds }))
		oc.set("comm_bytes", perJob(func(j servedJob, _ *isolated) float64 { return float64(j.status.CommBytes) }))
		oc.set("peak_rss_mb", peakRSS)
		return oc, nil
	}

	// Per layer.
	var gen, bind, first, rw, plan []float64
	for _, k := range m.kinds {
		var g, b, fr []float64
		for key, r := range refs {
			if strings.HasPrefix(key, k.name+"?") {
				g, b, fr = append(g, r.genSec), append(b, r.bindSec), append(fr, r.firstRunSec)
			}
		}
		gen, bind, first = append(gen, median(g)), append(bind, median(b)), append(first, median(fr))
		built, err := reg.Build(k.name, serveBlockSize, k.params)
		if err != nil {
			return nil, err
		}
		e := engine.New(engine.DMac, dist.ScaledConfig(clusterWorkers, localParallelism), serveBlockSize)
		e.SetRewriter(rewrite.New())
		for i := 0; i < 5; i++ {
			c.time("rewrite."+k.name, func() error {
				_, err := rewrite.New().Rewrite(built.Program)
				return err
			})
			c.time("core.plan."+k.name, func() error {
				_, err := e.Plan(built.Program)
				return err
			})
		}
		e.Close()
		rw = append(rw, median(c.spans("rewrite."+k.name)))
		plan = append(plan, median(c.spans("core.plan."+k.name)))
	}
	oc.set("workload.gen_s", mean(gen))
	oc.set("engine.bind_s", mean(bind))
	oc.set("engine.first_run_s", mean(first))
	oc.set("rewrite.s", mean(rw))
	oc.set("core.plan_s", mean(plan))
	oc.set("engine.plan_cache_hit_ratio", ratio(float64(plan1[0]-plan0[0]), float64(plan1[0]-plan0[0]+plan1[1]-plan0[1])))
	oc.set("dist.comm_events", perJob(func(_ servedJob, r *isolated) float64 { return float64(r.metrics.CommEvents) }))
	oc.set("dist.broadcasts", perJob(func(_ servedJob, r *isolated) float64 { return float64(r.metrics.Broadcasts) }))
	oc.set("dist.shuffles", perJob(func(_ servedJob, r *isolated) float64 { return float64(r.metrics.Shuffles) }))
	oc.set("dist.model_compute_s", perJob(func(_ servedJob, r *isolated) float64 { return sumStages(r.metrics, true) }))
	oc.set("dist.model_network_s", perJob(func(_ servedJob, r *isolated) float64 { return sumStages(r.metrics, false) }))
	nd := float64(len(done))
	layers.report(oc, nd)
	if nd > 0 {
		oc.set("matrix.mul_count", float64(k1.count-k0.count)/nd)
		oc.set("matrix.mul_flops", float64(k1.flops-k0.flops)/nd)
		oc.set("matrix.strategy_count.classical", float64(k1.classical-k0.classical)/nd)
		oc.set("matrix.strategy_count.strassen", float64(k1.strassen-k0.strassen)/nd)
		if h := f.reg.Histogram("kernel.mul.gflops", obs.GFLOPSBuckets); h.Count() > 0 {
			oc.set("matrix.mul_gflops_p50", h.Quantile(0.5))
		}
	}
	oc.setPercentile("serve.submit_p50_s", submits, 0.5)
	oc.setPercentile("serve.submit_p90_s", submits, 0.9)
	var queue []float64
	runs := make(map[string][]float64)
	for _, j := range done {
		queue = append(queue, j.status.QueueSec)
		runs[j.kind.name] = append(runs[j.kind.name], j.status.RunSec)
	}
	oc.setPercentile("serve.queue_wait_p50_s", queue, 0.5)
	oc.setPercentile("serve.queue_wait_p90_s", queue, 0.9)
	for _, k := range m.kinds {
		oc.setPercentile("serve.run_p50_s."+k.name, runs[k.name], 0.5)
	}
	oc.set("serve.rejected_ratio", float64(stats.Rejected-stats0.Rejected)/float64(n))
	jh, jm := stats.JobCache.Hits-stats0.JobCache.Hits, stats.JobCache.Misses-stats0.JobCache.Misses
	oc.set("serve.job_cache_hit_ratio", ratio(float64(jh), float64(jh+jm)))
	ph, pm := stats.PlanCache.Hits-stats0.PlanCache.Hits, stats.PlanCache.Misses-stats0.PlanCache.Misses
	oc.set("serve.plan_cache_hit_ratio", ratio(float64(ph), float64(ph+pm)))
	oc.setPercentile("loadgen.late_p90_s", lates, 0.9)
	sort.Float64s(lates)
	oc.set("loadgen.late_max_s", lates[len(lates)-1])
	rtStats.report(oc)
	return oc, nil
}
