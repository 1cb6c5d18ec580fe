// Command perfbench is DMac's wall-clock benchmark. It drives one named
// workload through the public functions of each layer, checks the outputs,
// and prints every end-to-end metric (untraced run) or every per-layer
// metric (traced run) by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload gnmf --seed 1 --seconds 30 --trace 0
//
// Workloads: gnmf, pagerank-wire, serve-mix. See perfbench/README.md for
// what each measures and what every metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"

	"dmac/internal/matrix"
	"dmac/internal/workload"
)

// options are the command-line arguments of one run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// gnmfFull and pagerankFull are the measured sizes of the iterative
// workloads.
var (
	gnmfFull     = gnmfWorkload(10, workload.Netflix.Sparsity)
	pagerankFull = pagerankWorkload(40)
)

// workloads maps a workload name to its run at full size.
var workloads = map[string]func(options) (*outcome, error){
	"gnmf":          func(o options) (*outcome, error) { return runIterative(gnmfFull, o) },
	"pagerank-wire": func(o options) (*outcome, error) { return runIterative(pagerankFull, o) },
	"serve-mix":     func(o options) (*outcome, error) { return runServeMix(defaultServeMix(), o) },
}

// blockSizes records each workload's block size with its result.
var blockSizes = map[string]int{
	"gnmf":          gnmfFull.blockSize,
	"pagerank-wire": pagerankFull.blockSize,
	"serve-mix":     serveBlockSize,
}

func main() {
	name := flag.String("workload", "", "workload: gnmf | pagerank-wire | serve-mix")
	seed := flag.Int64("seed", 1, "seed of every generated input (1 is the primary seed, 2 the second seed claims are checked on)")
	seconds := flag.Float64("seconds", 30, "length of the measuring window in seconds")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics, 0 prints the end-to-end metrics")
	record := flag.Int("record", 0, "print reference fingerprints of gnmf and pagerank-wire for seeds 0..N-1 as JSON and exit")
	flag.Parse()

	if *record > 0 {
		if err := recordReferences(os.Stdout, *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), " | "))
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	host := hostInfo(*name, opt)
	hj, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hj)

	oc, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	oc.set("fail_ratio", ratio(float64(oc.failed), float64(oc.attempted)))
	res := emit(*name, oc, opt.trace)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// emit prints the notes and a metric table, and builds the result from the
// catalog metrics of the run's mode.
func emit(workload string, oc *outcome, traced bool) result {
	for _, n := range oc.notes {
		fmt.Println("#", n)
	}
	res := result{Correct: oc.correct, Attempted: oc.attempted, Failed: oc.failed, Metrics: make(map[string]metricValue)}
	for _, d := range catalog {
		if d.endToEnd == traced {
			continue
		}
		v := oc.values[d.name]
		why := ""
		if v == 0 {
			why = d.zeroOn[workload]
			if why == "" {
				why = d.zeroElse
			}
			if why == "" {
				why = "measured zero"
			}
		}
		fmt.Printf("%-34s %16.6g %-8s %s\n", d.name, v, d.unit, why)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res
}

// hostInfo is the host and configuration recorded with every result, so
// results from different hosts are never compared silently.
func hostInfo(workload string, opt options) map[string]any {
	h := map[string]any{
		"workload":       workload,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"goos":           runtime.GOOS,
		"goarch":         runtime.GOARCH,
		"avx":            hasAVX(),
		"kernel_workers": matrix.KernelWorkers(),
		"block_size":     blockSizes[workload],
		"seed":           opt.seed,
		"seconds":        opt.seconds,
		"trace":          opt.trace,
	}
	if workload == "serve-mix" {
		h["offered_rate_per_s"] = defaultServeMix().rate
	}
	return h
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hasAVX reports whether the CPU flags in /proc/cpuinfo include avx. The
// benchmark assumes Linux already (it reads ru_maxrss in KiB).
func hasAVX() bool {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "flags") {
			return slices.Contains(strings.Fields(line), "avx")
		}
	}
	return false
}
