package serve

import (
	"time"

	"dmac/internal/autoscale"
)

// CacheStats summarizes one shared cache for /v1/stats.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes,omitempty"`
}

// TenantStats is one tenant's live and cumulative accounting. Completed
// counts every terminal state: done, failed and canceled.
type TenantStats struct {
	Queued       int   `json:"queued"`
	Running      int   `json:"running"`
	RunningBytes int64 `json:"running_bytes"`
	Submitted    int64 `json:"submitted"`
	Completed    int64 `json:"completed"`
	Rejected     int64 `json:"rejected"`
}

// Stats is the /v1/stats snapshot.
type Stats struct {
	UptimeSec float64 `json:"uptime_sec"`
	Draining  bool    `json:"draining"`
	// Pool shape: live slots (draining included), idle slots, slots
	// retiring after a shrink, and the Resize target the dispatcher grows
	// toward. Exposed whether or not autoscaling is enabled.
	SlotsTotal    int `json:"slots_total"`
	SlotsFree     int `json:"slots_free"`
	SlotsDraining int `json:"slots_draining"`
	SlotsDesired  int `json:"slots_desired"`
	QueueDepth    int `json:"queue_depth"`
	Running       int `json:"running"`
	// QueuedEstBytes prices the backlog with the planner's block memory
	// model (the sum of queued jobs' admission estimates).
	QueuedEstBytes int64 `json:"queued_est_bytes"`

	// Totals over every tenant. Completed counts done jobs only.
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Rejected  int64 `json:"rejected"`

	// QueueWaitCount/Sum summarize the queue-wait histograms (seconds)
	// merged over tenants; the per-tenant distributions live in the metrics
	// registry.
	QueueWaitCount int64   `json:"queue_wait_count"`
	QueueWaitSum   float64 `json:"queue_wait_sum_sec"`
	RunCount       int64   `json:"run_count"`
	RunSum         float64 `json:"run_sum_sec"`

	// Quantiles of the tenant histograms merged into one
	// (obs.HistogramVec.Merged), estimated by linear interpolation within
	// buckets (obs.HistogramSnapshot.Quantile), so clients and benches read
	// latency percentiles from the service instead of recomputing them from
	// raw samples.
	QueueWaitP50Sec float64 `json:"queue_wait_p50_sec"`
	QueueWaitP95Sec float64 `json:"queue_wait_p95_sec"`
	QueueWaitP99Sec float64 `json:"queue_wait_p99_sec"`
	RunP50Sec       float64 `json:"run_p50_sec"`
	RunP95Sec       float64 `json:"run_p95_sec"`
	RunP99Sec       float64 `json:"run_p99_sec"`

	PlanCache CacheStats             `json:"plan_cache"`
	JobCache  CacheStats             `json:"job_cache"`
	Tenants   map[string]TenantStats `json:"tenants"`

	// Autoscale is the controller's state when -autoscale is on.
	Autoscale *autoscale.Status `json:"autoscale,omitempty"`
}

// Stats snapshots the service for /v1/stats and the bench load generator.
// Every count and quantile is read from the labeled metric families under
// the service mutex, which every update to them also holds, so the totals,
// the per-tenant counts and the live queue state agree with each other.
func (s *Service) Stats() Stats {
	ph, pm, pe := s.shared.Stats()
	jh, jm, je, jb := s.jobCache.stats()
	// Controller status is read before s.mu: the controller's Tick may hold
	// its own lock while calling Observe/Resize, which take s.mu.
	as := s.AutoscaleStatus()
	st := Stats{
		UptimeSec: time.Since(s.start).Seconds(),
		PlanCache: CacheStats{Hits: ph, Misses: pm, Entries: pe},
		JobCache:  CacheStats{Hits: jh, Misses: jm, Entries: je, Bytes: jb},
		Tenants:   make(map[string]TenantStats),
		Autoscale: as,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	finished := func(state State) int64 {
		return s.vFinished.Sum(map[string]string{"state": string(state)})
	}
	st.Submitted = s.vSubmitted.Sum(nil)
	st.Completed = finished(StateDone)
	st.Failed = finished(StateFailed)
	st.Canceled = finished(StateCanceled)
	st.Rejected = s.vRejected.Sum(nil)
	wait := s.vQueueWait.Merged()
	run := s.vRunSeconds.Merged()
	st.QueueWaitCount, st.QueueWaitSum = wait.Count, wait.Sum
	st.RunCount, st.RunSum = run.Count, run.Sum
	st.QueueWaitP50Sec = wait.Quantile(0.50)
	st.QueueWaitP95Sec = wait.Quantile(0.95)
	st.QueueWaitP99Sec = wait.Quantile(0.99)
	st.RunP50Sec = run.Quantile(0.50)
	st.RunP95Sec = run.Quantile(0.95)
	st.RunP99Sec = run.Quantile(0.99)

	st.Draining = s.draining
	st.SlotsTotal = len(s.slots)
	st.SlotsFree = len(s.freeSlots)
	st.SlotsDraining = s.drainingSlots
	st.SlotsDesired = s.desiredSlots
	st.QueueDepth = s.q.size
	st.Running = s.running
	st.QueuedEstBytes = s.queuedEstBytes
	for name, ts := range s.tenants {
		tenant := map[string]string{"tenant": name}
		st.Tenants[name] = TenantStats{
			Queued:       ts.queued,
			Running:      ts.running,
			RunningBytes: ts.runningBytes,
			Submitted:    s.vSubmitted.Sum(tenant),
			Completed:    s.vFinished.Sum(tenant),
			Rejected:     s.vRejected.Sum(tenant),
		}
	}
	return st
}
