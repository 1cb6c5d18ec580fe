package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"dmac/internal/core"
	"dmac/internal/dep"
	"dmac/internal/dist"
	"dmac/internal/expr"
	"dmac/internal/matrix"
	"dmac/internal/obs"
	"dmac/internal/retry"
)

// execState is the live state of one plan execution: the value table the
// stages fill in, the stage structure, and everything the checkpoint/restore
// machinery needs to rebuild or replay parts of it.
type execState struct {
	plan *core.Plan
	// sig is the plan signature of this run, stamped into checkpoint
	// manifests so a stale snapshot (different session, different plan) can
	// never be restored into this execution.
	sig        string
	vals       []*dist.DistMatrix
	valueStage []int
	stages     []int
	byStage    map[int][]*core.Op
	params     map[string]float64
}

// execStats is what execute reports beyond success: per-stage wall time and
// the durability counters of the run.
type execStats struct {
	stageWall         map[int]float64
	checkpointBytes   int64
	checkpointSeconds float64
	stagesReplayed    int
}

// execute materializes a validated plan on the cluster stage by stage, then
// folds assignments and scalar outputs back into the session.
//
// Stages are the fault-tolerance unit, exactly as on the paper's Spark
// substrate: every op's stage is >= the stage of each of its input values,
// so running stages in ascending order (keeping the plan's op order within a
// stage) is a valid topological order, and a failed stage can be retried in
// isolation once its inputs are recovered.
// It returns the measured wall-clock seconds of each executed stage (all
// attempts and recovery included) for per-stage metrics attribution, plus the
// run's durability counters.
//
// Between stages the run's context is observed: cancellation or an expired
// deadline aborts cleanly with the context's error (mid-stage, the executor's
// workers observe the same context between block tasks). With a checkpointer
// attached (SetCheckpoint), the policy is consulted after every completed
// stage and selected snapshots of the live values are written to disk.
func (e *Engine) execute(ctx context.Context, plan *core.Plan, sig string, params map[string]float64) (execStats, error) {
	st := &execState{
		plan:    plan,
		sig:     sig,
		vals:    make([]*dist.DistMatrix, len(plan.Values)),
		byStage: make(map[int][]*core.Op),
		params:  params,
	}
	for _, op := range plan.Ops {
		if _, ok := st.byStage[op.Stage]; !ok {
			st.stages = append(st.stages, op.Stage)
		}
		st.byStage[op.Stage] = append(st.byStage[op.Stage], op)
	}
	sort.Ints(st.stages)
	st.valueStage = make([]int, len(plan.Values))
	for i := range st.valueStage {
		st.valueStage[i] = -1
	}
	for _, op := range plan.Ops {
		if op.Output >= 0 {
			st.valueStage[op.Output] = op.Stage
		}
	}
	e.ckpt.beginRun()
	stats := execStats{stageWall: make(map[int]float64, len(st.stages))}
	for _, s := range st.stages {
		if err := ctx.Err(); err != nil {
			return stats, fmt.Errorf("engine: run cancelled before stage %d: %w", s, err)
		}
		span := e.tracer.Start("engine", fmt.Sprintf("stage %d", s), e.tracer.Scope(),
			obs.Int64("stage", int64(s)), obs.Int64("ops", int64(len(st.byStage[s]))))
		prev := e.tracer.SetScope(span)
		netBefore := e.cluster.Net().Snapshot()
		start := time.Now()
		err := e.runStage(ctx, st, s)
		stats.stageWall[s] = time.Since(start).Seconds()
		e.tracer.SetScope(prev)
		e.tracer.End(span)
		if err != nil {
			return stats, err
		}
		if e.metrics != nil {
			e.metrics.HistogramVec("engine.stage.seconds", obs.SecondsBuckets, "stage").
				With(strconv.Itoa(s)).Observe(stats.stageWall[s])
		}
		if e.ckpt != nil {
			e.ckpt.noteStage(e.modelCost(netBefore, e.cluster.Net().Snapshot()))
			if e.ckpt.shouldCheckpoint(estimateLiveBytes(st.vals)) {
				e.writeCheckpoint(st, s)
			}
		}
	}
	if e.ckpt != nil {
		stats.checkpointBytes = e.ckpt.bytes
		stats.checkpointSeconds = e.ckpt.seconds
		stats.stagesReplayed = e.ckpt.replayed
	}
	e.cacheLeafInstances(plan, st.vals)
	return stats, e.commitAssignments(plan, st.vals)
}

// modelCost prices a NetStats delta with the cluster's cost model: modelled
// compute seconds plus modelled network seconds — what re-running the work
// the delta describes would cost.
func (e *Engine) modelCost(before, after dist.Snapshot) float64 {
	cfg := e.cluster.Config()
	threads := float64(cfg.Workers * cfg.LocalParallelism)
	compute := (after.FLOPs - before.FLOPs) * cfg.MaxSlowdown() / (threads * cfg.FlopsPerSecPerThread)
	network := float64(after.Bytes-before.Bytes)/cfg.BandwidthBytesPerSec +
		float64(after.CommEvents-before.CommEvents)*cfg.ShuffleLatencySec
	return compute + network
}

// runStage executes one stage's ops, retrying on injected worker failures
// with capped exponential backoff. Each failed attempt recovers the stage's
// inputs from lineage (session instances and earlier stages' values) before
// the retry; the ops themselves are deterministic functions of their inputs,
// so a retried stage reproduces the exact blocks of a fault-free run. With a
// checkpointer attached, recovery additionally restores the newest valid
// on-disk snapshot and replays only the stages after it (the recovery ladder
// of restoreAndReplay), instead of relying on the full lineage.
func (e *Engine) runStage(ctx context.Context, st *execState, stage int) error {
	cfg := e.cluster.Config()
	ops := st.byStage[stage]
	for attempt := 0; ; attempt++ {
		span := e.tracer.Start("engine", "attempt", e.tracer.Scope(),
			obs.Int64("stage", int64(stage)), obs.Int64("attempt", int64(attempt)))
		prev := e.tracer.SetScope(span)
		err := e.cluster.BeginStage(stage, attempt)
		if err == nil {
			err = e.runOps(ctx, st.plan, stage, ops, st.vals, st.params)
		}
		if err == nil {
			// An armed task kill that no operator of this stage consumed
			// still fails the attempt.
			if f := e.cluster.TakeFault(); f != nil {
				err = f
			}
		}
		e.tracer.SetScope(prev)
		if err == nil {
			e.tracer.End(span)
			return nil
		}
		e.tracer.End(span, obs.String("error", err.Error()))
		var wf *dist.WorkerFailure
		if !errors.As(err, &wf) || attempt >= cfg.MaxStageRetries {
			return err
		}
		rec := e.tracer.Start("engine", "recover", e.tracer.Scope(),
			obs.Int64("stage", int64(stage)), obs.Int64("worker", int64(wf.Worker)))
		prev = e.tracer.SetScope(rec)
		e.recoverStage(st, stage, wf)
		var rerr error
		if e.ckpt != nil {
			_, rerr = e.restoreAndReplay(ctx, st, stage)
		}
		e.tracer.SetScope(prev)
		e.tracer.End(rec)
		if rerr != nil {
			return rerr
		}
		backoff := retry.Policy{BaseSec: cfg.RetryBackoffBaseSec, CapSec: cfg.RetryBackoffCapSec}.Backoff(attempt)
		e.cluster.Net().AddStall(backoff)
		e.cluster.Net().AddRetry()
		e.metrics.Counter("fault.retries").Inc()
	}
}

// recoverStage performs lineage-based recovery after a worker failure: the
// stage's inputs — values materialized by earlier stages plus the session
// instances its leaf ops read — lose the dead worker's blocks, which must be
// re-fetched from lineage and re-partitioned across survivors. The dead
// worker's share is measured against pre-failure ownership (before the kill
// takes effect), then the worker is removed and the recovery shuffle is
// charged.
func (e *Engine) recoverStage(st *execState, stage int, wf *dist.WorkerFailure) {
	var bytes int64
	seen := make(map[core.ValueID]bool)
	for _, op := range st.byStage[stage] {
		if op.Kind == core.OpLoad || op.Kind == core.OpVar {
			if inst, err := e.leafInstance(op, st.plan); err == nil {
				bytes += e.cluster.WorkerBytes(inst, wf.Worker)
			}
		}
		for _, id := range op.Inputs {
			if id < 0 || seen[id] || st.vals[id] == nil || st.valueStage[id] >= stage {
				continue
			}
			seen[id] = true
			bytes += e.cluster.WorkerBytes(st.vals[id], wf.Worker)
		}
	}
	if e.cluster.KillWorker(wf.Worker) {
		e.cluster.ChargeRecovery(stage, wf.Worker, bytes)
	}
}

// opSpan opens the span of one plan operator: name from the operator kind
// (plus the program node's label where there is one), attributes carrying
// stage, strategy and the dependency types satisfied on its input edges.
func (e *Engine) opSpan(plan *core.Plan, stage int, op *core.Op) obs.SpanID {
	if !e.tracer.Enabled() {
		return 0
	}
	name := op.Kind.String()
	if op.Node != nil {
		name += " " + op.Node.Label()
	}
	attrs := []obs.Attr{
		obs.Int64("stage", int64(stage)),
		obs.String("kind", op.Kind.String()),
	}
	if op.Kind == core.OpCompute {
		attrs = append(attrs, obs.String("strategy", op.Strategy.String()))
		// mul_algo marks multiply operators; span readers classify op
		// self time as "mul" by its presence.
		if op.Node != nil && op.Node.Kind == expr.KindMul {
			attrs = append(attrs, obs.String("mul_algo", matrix.MulClassical.String()))
		}
	}
	for j, d := range op.InDeps {
		if d != dep.NoDependency {
			attrs = append(attrs, obs.String(fmt.Sprintf("dep_in%d", j), d.String()))
		}
	}
	if op.Output >= 0 {
		attrs = append(attrs, obs.String("out_scheme", plan.Value(op.Output).Scheme.String()))
	}
	return e.tracer.Start("op", name, e.tracer.Scope(), attrs...)
}

// runOps executes one stage's ops in plan order against the shared value
// table, one "op" span and one time-histogram sample per operator.
func (e *Engine) runOps(ctx context.Context, plan *core.Plan, stage int, ops []*core.Op, vals []*dist.DistMatrix, params map[string]float64) error {
	for i, op := range ops {
		var (
			out *dist.DistMatrix
			err error
		)
		span := e.opSpan(plan, stage, op)
		prevScope := e.tracer.SetScope(span)
		opStart := time.Now()
		switch op.Kind {
		case core.OpLoad, core.OpVar:
			out, err = e.leafInstance(op, plan)
		case core.OpPartition:
			out, err = e.cluster.Partition(ctx, vals[op.Inputs[0]], plan.Value(op.Output).Scheme, op.Stage)
		case core.OpBroadcast:
			out, err = e.cluster.Broadcast(ctx, vals[op.Inputs[0]], op.Stage)
		case core.OpTranspose:
			if op.CommBytes > 0 {
				// Baseline transpose job: shuffle-based.
				out, err = e.cluster.ShuffleTranspose(ctx, vals[op.Inputs[0]], op.Stage)
			} else {
				out = e.cluster.Transpose(vals[op.Inputs[0]])
			}
		case core.OpExtract:
			out, err = e.cluster.Extract(vals[op.Inputs[0]], plan.Value(op.Output).Scheme)
		case core.OpCompute:
			out, err = e.compute(ctx, plan, op, vals, params)
		default:
			e.tracer.SetScope(prevScope)
			e.tracer.End(span)
			return fmt.Errorf("engine: stage %d op %d has unexpected kind %v", stage, i, op.Kind)
		}
		e.tracer.SetScope(prevScope)
		if e.metrics != nil {
			e.metrics.Histogram("op."+op.Kind.String()+".seconds", obs.SecondsBuckets).
				Observe(time.Since(opStart).Seconds())
			e.metrics.Counter("op." + op.Kind.String() + ".count").Inc()
		}
		if err != nil {
			e.tracer.End(span, obs.String("error", err.Error()))
			return fmt.Errorf("engine: stage %d op %d (%s): %w", stage, i, op.Kind, err)
		}
		e.tracer.End(span)
		if op.Output >= 0 {
			if out == nil {
				return fmt.Errorf("engine: stage %d op %d produced no value", stage, i)
			}
			vals[op.Output] = out
		}
	}
	return nil
}

// cacheLeafInstances merges the repartitioned instances of input variables
// back into the session, modelling Spark's RDD cache: once DMac has, e.g.,
// the Column scheme of the link matrix, later iterations reference it
// without communication (Section 6.4). Variables reassigned by this program
// are skipped — their data changed, so assignment handles them.
func (e *Engine) cacheLeafInstances(plan *core.Plan, vals []*dist.DistMatrix) {
	assigned := make(map[string]bool)
	for _, a := range plan.Program.Assignments() {
		assigned[a.Name] = true
	}
	for _, op := range plan.Ops {
		if op.Kind != core.OpLoad && op.Kind != core.OpVar {
			continue
		}
		name := op.Node.Name
		if assigned[name] {
			continue
		}
		vs := e.vars[name]
		if vs == nil {
			continue
		}
		for _, v := range plan.Values {
			dm := vals[v.ID]
			if dm == nil || v.Matrix != op.Node.ID || v.Transposed || v.Scheme == dep.SchemeNone {
				continue
			}
			if _, ok := vs.instances[v.Scheme]; !ok {
				vs.instances[v.Scheme] = dm
			}
		}
	}
}

// leafInstance resolves an OpLoad/OpVar to a session instance with the
// scheme the plan expects.
func (e *Engine) leafInstance(op *core.Op, plan *core.Plan) (*dist.DistMatrix, error) {
	name := op.Node.Name
	vs, ok := e.vars[name]
	if !ok {
		return nil, fmt.Errorf("no bound matrix %q", name)
	}
	if vs.rows != op.Node.Rows || vs.cols != op.Node.Cols {
		return nil, fmt.Errorf("%q is %dx%d, program declares %dx%d",
			name, vs.rows, vs.cols, op.Node.Rows, op.Node.Cols)
	}
	scheme := plan.Value(op.Output).Scheme
	inst, ok := vs.instances[scheme]
	if !ok {
		return nil, fmt.Errorf("%q has no cached instance with scheme %s", name, scheme)
	}
	return inst, nil
}

// compute executes an OpCompute with its chosen strategy.
func (e *Engine) compute(ctx context.Context, plan *core.Plan, op *core.Op, vals []*dist.DistMatrix, params map[string]float64) (*dist.DistMatrix, error) {
	n := op.Node
	in := func(i int) *dist.DistMatrix { return vals[op.Inputs[i]] }
	switch n.Kind {
	case expr.KindMul:
		var strat dist.MulStrategy
		switch op.Strategy {
		case core.RMM1:
			strat = dist.RMM1
		case core.RMM2:
			strat = dist.RMM2
		case core.CPMM:
			strat = dist.CPMM
		default:
			return nil, fmt.Errorf("multiplication with strategy %s", op.Strategy)
		}
		outScheme := dep.SchemeNone
		if op.Strategy == core.CPMM {
			outScheme = plan.Value(op.Output).Scheme
		}
		return e.cluster.Multiply(ctx, in(0), in(1), strat, outScheme, op.Stage)
	case expr.KindCell:
		return e.cluster.Cellwise(n.BinOp, in(0), in(1))
	case expr.KindScalar:
		c := n.Const
		if n.Param != "" {
			v, ok := params[n.Param]
			if !ok {
				return nil, fmt.Errorf("missing parameter %q", n.Param)
			}
			c = v
		}
		return e.cluster.Scalar(n.ScalarOp, in(0), c)
	case expr.KindUFunc:
		return e.cluster.Apply(n.UFunc, in(0))
	case expr.KindSum:
		v, err := e.cluster.Sum(ctx, in(0), op.Stage)
		if err != nil {
			return nil, err
		}
		e.scalars[op.ScalarName] = v
		return nil, nil
	case expr.KindNorm2:
		v, err := e.cluster.Norm2(ctx, in(0), op.Stage)
		if err != nil {
			return nil, err
		}
		e.scalars[op.ScalarName] = v
		return nil, nil
	case expr.KindValue:
		v, err := e.cluster.Value(ctx, in(0), op.Stage)
		if err != nil {
			return nil, err
		}
		e.scalars[op.ScalarName] = v
		return nil, nil
	default:
		return nil, fmt.Errorf("compute with node kind %v", n.Kind)
	}
}

// commitAssignments folds the program's assignments into the session. Every
// materialized instance of the assigned matrix is kept, so the next program
// execution sees all cached schemes (this is how DMac reuses, e.g., both
// W(r) and W(b) across GNMF iterations).
func (e *Engine) commitAssignments(plan *core.Plan, vals []*dist.DistMatrix) error {
	for _, a := range plan.Program.Assignments() {
		node := a.Ref.Node
		instances := make(map[dep.Scheme]*dist.DistMatrix)
		for _, v := range plan.Values {
			dm := vals[v.ID]
			if v.Matrix != node.ID || dm == nil {
				continue
			}
			if v.Transposed != a.Ref.Transposed {
				// The cached instance is the transpose of what the program
				// assigns; transpose locally (free) to store the assigned
				// orientation.
				dm = e.cluster.Transpose(dm)
			}
			if _, ok := instances[dm.Scheme]; !ok && dm.Scheme != dep.SchemeNone {
				instances[dm.Scheme] = dm
			}
		}
		if len(instances) == 0 {
			// Fall back to the primary value even if hash-partitioned.
			id, ok := plan.NodeValue[node.ID]
			if !ok || vals[id] == nil {
				return fmt.Errorf("engine: assignment %q has no materialized value", a.Name)
			}
			instances[vals[id].Scheme] = vals[id]
		}
		rows, cols := a.Ref.Rows(), a.Ref.Cols()
		e.vars[a.Name] = &varState{rows: rows, cols: cols, instances: instances}
	}
	return nil
}
