package main

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"dmac/internal/workload"
)

// jobKind is one served workload of the mix with its fixed parameters.
type jobKind struct {
	name   string
	params workload.Params
	// weight is the kind's count in every block of the stratified mix.
	weight int
}

// arrival is one job of the open loop.
type arrival struct {
	// due is the arrival's offset from the start of the loop.
	due    time.Duration
	kind   jobKind
	tenant string
	seed   int64
	// fresh marks a seed the service has never seen.
	fresh bool
}

// params returns the job's parameters: the kind's, plus its seed.
func (a arrival) params() workload.Params {
	p := workload.Params{"seed": float64(a.seed)}
	for k, v := range a.kind.params {
		p[k] = v
	}
	return p
}

const (
	// recurringSeeds is the number of seeds per kind that repeat, so the
	// job and plan caches hit on them.
	recurringSeeds = 3
	// freshEvery makes every freshEvery-th arrival use a never-seen seed, so
	// cache misses recur at a steady rate.
	freshEvery = 5
	// tenants share the open loop round-robin.
	tenants = 3
)

// schedule generates n open-loop arrivals at rate per second from seed.
// Inter-arrival gaps are exponential, as in a Poisson process, but
// stratified: the gaps are the exponential quantiles at (k+0.5)/n in a
// seeded order. So every run offers the same load over the same span, and
// only the order of gaps (the bursts) varies with the seed. Job kinds come in
// shuffled blocks that hold each kind weight times, so every run sees the
// same mix. Every freshEvery-th arrival gets a new seed; the rest draw from
// recurringSeeds seeds per kind.
func schedule(seed int64, rate float64, n int, kinds []jobKind) []arrival {
	rng := rand.New(rand.NewSource(subSeed(seed, 10)))
	var block []jobKind
	for _, k := range kinds {
		for i := 0; i < k.weight; i++ {
			block = append(block, k)
		}
	}
	gaps := make([]float64, n)
	for k := range gaps {
		gaps[k] = -math.Log(1-(float64(k)+0.5)/float64(n)) / rate
	}
	rng.Shuffle(n, func(a, b int) { gaps[a], gaps[b] = gaps[b], gaps[a] })
	out := make([]arrival, 0, n)
	var at float64
	var pending []jobKind
	for i := 0; i < n; i++ {
		if len(pending) == 0 {
			pending = append(pending, block...)
			rng.Shuffle(len(pending), func(a, b int) { pending[a], pending[b] = pending[b], pending[a] })
		}
		k := pending[0]
		pending = pending[1:]
		a := arrival{
			due:    time.Duration(at * float64(time.Second)),
			kind:   k,
			tenant: "tenant-" + string(rune('a'+i%tenants)),
		}
		if i%freshEvery == freshEvery-1 {
			a.fresh = true
			a.seed = 1_000_000 + subSeed(seed, 20+int64(i))%1_000_000_000
		} else {
			a.seed = 1 + subSeed(seed, 11+int64(rng.Intn(recurringSeeds)))%999_983
		}
		out = append(out, a)
		at += gaps[i]
	}
	return out
}

// jobTiming is the client-side timeline of one open-loop job.
type jobTiming struct {
	due    time.Time // when the job should have been sent
	sent   time.Time // when a client connection began posting it
	posted time.Time // when the POST returned
	done   time.Time // when the job reached a terminal status
	ok     bool      // accepted and finished successfully
}

// latency is measured from the due time, not the send time, so a late
// generator or a saturated client pool counts against the system rather
// than hiding queueing (no coordinated omission). A rejected or failed job
// misses every limit: +Inf.
func (t jobTiming) latency() float64 {
	if !t.ok {
		return math.Inf(1)
	}
	return t.done.Sub(t.due).Seconds()
}

// late is how far behind its schedule the generator sent the job.
func (t jobTiming) late() float64 { return t.sent.Sub(t.due).Seconds() }

// runOpenLoop sends the arrivals at their due times from start through at
// most clients concurrent submitters. submit posts arrival i and returns a
// function that blocks until the job is terminal and reports success, or
// nil when the job was refused. runOpenLoop returns when every job is
// terminal.
func runOpenLoop(arrivals []arrival, start time.Time, clients int, submit func(i int) func() bool) []jobTiming {
	timings := make([]jobTiming, len(arrivals))
	for i, a := range arrivals {
		timings[i].due = start.Add(a.due)
	}
	next := make(chan int, len(arrivals))
	var senders, waiters sync.WaitGroup
	for c := 0; c < clients; c++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := range next {
				t := &timings[i]
				t.sent = time.Now()
				wait := submit(i)
				t.posted = time.Now()
				if wait == nil {
					t.done = t.posted
					continue
				}
				waiters.Add(1)
				go func() {
					defer waiters.Done()
					t.ok = wait()
					t.done = time.Now()
				}()
			}
		}()
	}
	for i := range arrivals {
		time.Sleep(time.Until(timings[i].due))
		next <- i
	}
	close(next)
	senders.Wait()
	waiters.Wait()
	return timings
}
