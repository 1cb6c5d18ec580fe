package serve

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"dmac/internal/obs"
	"dmac/internal/workload"
)

// familySum totals the children of a counter family in a registry snapshot
// whose labels equal match on every name it gives.
func familySum(snap obs.MetricsSnapshot, name string, match map[string]string) int64 {
	var total int64
	for _, ch := range snap.CounterVecs[name] {
		ok := true
		for k, v := range match {
			if ch.Labels[k] != v {
				ok = false
			}
		}
		if ok {
			total += ch.Value
		}
	}
	return total
}

// familyMerged adds up every child of a histogram family in a registry
// snapshot.
func familyMerged(t *testing.T, snap obs.MetricsSnapshot, name string) obs.HistogramSnapshot {
	t.Helper()
	var out obs.HistogramSnapshot
	for _, ch := range snap.HistogramVecs[name] {
		if out.Counts == nil {
			out.Bounds = ch.Hist.Bounds
			out.Counts = make([]int64, len(ch.Hist.Counts))
		}
		if len(ch.Hist.Counts) != len(out.Counts) {
			t.Fatalf("%s children disagree on bucket layout", name)
		}
		for i, c := range ch.Hist.Counts {
			out.Counts[i] += c
		}
		out.Count += ch.Hist.Count
		out.Sum += ch.Hist.Sum
	}
	return out
}

// waitState polls a job until it reaches want (or fails the test).
func waitState(t *testing.T, s *Service, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s reached %s, want %s (%s)", id, st.State, want, st.Error)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatsMatchMetricFamilies drives every terminal state and every
// rejection reason across two tenants, then checks that /v1/stats and the
// autoscaler's signals are exactly what the labeled serve.tenant.* families
// in /metrics say: same totals, same per-tenant counts, same quantiles.
func TestStatsMatchMetricFamilies(t *testing.T) {
	// Comm pacing makes the pagerank jobs wait on every shuffle, so the
	// deadline job reliably misses 20ms and the slow job outlives Stop's
	// 300ms drain deadline on any host.
	opts := pacedOptions(0.005)
	opts.Slots = 1
	opts.QueueCapacity = 3
	opts.DefaultQuota = TenantQuota{MaxConcurrent: 1, MaxQueued: 2}
	s := newTestService(t, opts)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	submit := func(tenant, wl string, params workload.Params, deadline time.Duration) (string, error) {
		st, err := s.Submit(JobSpec{Tenant: tenant, Workload: wl, Params: params, Deadline: deadline})
		return st.ID, err
	}
	mustSubmit := func(tenant, wl string, params workload.Params, deadline time.Duration) string {
		t.Helper()
		id, err := submit(tenant, wl, params, deadline)
		if err != nil {
			t.Fatalf("submit %s/%s: %v", tenant, wl, err)
		}
		return id
	}
	mustReject := func(tenant, reason string) {
		t.Helper()
		_, err := submit(tenant, "gram", nil, 0)
		var rej *Rejection
		if !errors.As(err, &rej) {
			t.Fatalf("submit %s: got %v, want a %s rejection", tenant, err, reason)
		}
	}
	finish := func(id string, want State) {
		t.Helper()
		fin, err := s.Wait(ctx, id)
		if err != nil || fin.State != want {
			t.Fatalf("job %s: %v / state %s, want %s", id, err, fin.State, want)
		}
	}

	// One done job per tenant, then a deadline failure.
	finish(mustSubmit("a", "gram", nil, 0), StateDone)
	finish(mustSubmit("b", "gram", nil, 0), StateDone)
	finish(mustSubmit("a", "pagerank", workload.Params{"nodes": 48, "iters": 200, "seed": 4}, 20*time.Millisecond), StateFailed)

	// Occupy the single slot, then fill the queue: a has one job queued, b
	// two (its quota), and the global queue is at capacity.
	slow := mustSubmit("a", "pagerank", workload.Params{"nodes": 48, "iters": 200, "seed": 1}, 0)
	waitState(t, s, slow, StateRunning)
	queuedA := mustSubmit("a", "gram", nil, 0)
	mustSubmit("b", "gram", nil, 0)
	mustSubmit("b", "gram", nil, 0)
	mustReject("b", "tenant_quota")
	mustReject("a", "queue_full")

	// Cancel a's queued job, then stop with a deadline the slow job cannot
	// meet: a submit while draining is refused, b's two queued jobs are shed
	// and the running job is canceled.
	if st, err := s.Cancel(queuedA); err != nil || st.State != StateCanceled {
		t.Fatalf("cancel queued: %v / %+v", err, st)
	}
	stopCtx, stopCancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer stopCancel()
	stopped := make(chan error, 1)
	go func() { stopped <- s.Stop(stopCtx) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	mustReject("a", "draining")
	if err := <-stopped; err == nil {
		t.Fatal("stop reported a clean drain; want shed and canceled jobs")
	}

	snap := s.Metrics().Snapshot()
	st := s.Stats()
	const (
		submitted = "serve.tenant.jobs.submitted"
		finished  = "serve.tenant.jobs.finished"
		rejected  = "serve.tenant.rejected"
	)
	all := map[string]string(nil)
	state := func(s State) map[string]string { return map[string]string{"state": string(s)} }

	// The scenario's own counts, so a family that records nothing cannot
	// pass by agreeing with a Stats that reads nothing.
	for _, c := range []struct {
		name  string
		match map[string]string
		want  int64
	}{
		{submitted, all, 7},
		{finished, state(StateDone), 2},
		{finished, state(StateFailed), 1},
		{finished, state(StateCanceled), 4},
		{rejected, map[string]string{"reason": "queue_full"}, 1},
		{rejected, map[string]string{"reason": "tenant_quota"}, 1},
		{rejected, map[string]string{"reason": "draining"}, 1},
	} {
		if got := familySum(snap, c.name, c.match); got != c.want {
			t.Errorf("%s%v = %d, want %d", c.name, c.match, got, c.want)
		}
	}

	for _, c := range []struct {
		field     string
		got, want int64
	}{
		{"Submitted", st.Submitted, familySum(snap, submitted, all)},
		{"Completed", st.Completed, familySum(snap, finished, state(StateDone))},
		{"Failed", st.Failed, familySum(snap, finished, state(StateFailed))},
		{"Canceled", st.Canceled, familySum(snap, finished, state(StateCanceled))},
		{"Rejected", st.Rejected, familySum(snap, rejected, all)},
		{"Observe().Submitted", s.Observe().Submitted, familySum(snap, submitted, all)},
	} {
		if c.got != c.want {
			t.Errorf("Stats.%s = %d, families say %d", c.field, c.got, c.want)
		}
	}

	if len(st.Tenants) != 2 {
		t.Fatalf("tenants = %v, want a and b", st.Tenants)
	}
	for name, ts := range st.Tenants {
		tenant := map[string]string{"tenant": name}
		if want := familySum(snap, submitted, tenant); ts.Submitted != want {
			t.Errorf("tenant %s Submitted = %d, families say %d", name, ts.Submitted, want)
		}
		if want := familySum(snap, finished, tenant); ts.Completed != want {
			t.Errorf("tenant %s Completed = %d, families say %d", name, ts.Completed, want)
		}
		if want := familySum(snap, rejected, tenant); ts.Rejected != want {
			t.Errorf("tenant %s Rejected = %d, families say %d", name, ts.Rejected, want)
		}
		if ts.Queued != 0 || ts.Running != 0 || ts.RunningBytes != 0 {
			t.Errorf("tenant %s still holds live state after stop: %+v", name, ts)
		}
	}

	wait := familyMerged(t, snap, "serve.tenant.queue.wait.seconds")
	run := familyMerged(t, snap, "serve.tenant.job.run.seconds")
	// Every dispatched job was timed in the queue and on its slot: the two
	// done, the failed and the canceled slow job.
	if wait.Count != 4 || run.Count != 4 {
		t.Errorf("histogram counts: queue wait %d, run %d, want 4 each", wait.Count, run.Count)
	}
	if st.QueueWaitCount != wait.Count || st.RunCount != run.Count {
		t.Errorf("Stats counts: queue wait %d run %d, families say %d / %d",
			st.QueueWaitCount, st.RunCount, wait.Count, run.Count)
	}
	if math.Abs(st.QueueWaitSum-wait.Sum) > 1e-9 || math.Abs(st.RunSum-run.Sum) > 1e-9 {
		t.Errorf("Stats sums: queue wait %v run %v, families say %v / %v",
			st.QueueWaitSum, st.RunSum, wait.Sum, run.Sum)
	}
	for _, q := range []struct {
		p         float64
		wait, run float64
	}{
		{0.50, st.QueueWaitP50Sec, st.RunP50Sec},
		{0.95, st.QueueWaitP95Sec, st.RunP95Sec},
		{0.99, st.QueueWaitP99Sec, st.RunP99Sec},
	} {
		if want := wait.Quantile(q.p); q.wait != want {
			t.Errorf("queue wait p%v = %v, merged families say %v", q.p*100, q.wait, want)
		}
		if want := run.Quantile(q.p); q.run != want {
			t.Errorf("run p%v = %v, merged families say %v", q.p*100, q.run, want)
		}
	}
	if want := wait.Quantile(0.99); s.Observe().QueueWaitP99Sec != want {
		t.Errorf("Observe().QueueWaitP99Sec = %v, merged families say %v", s.Observe().QueueWaitP99Sec, want)
	}
}
