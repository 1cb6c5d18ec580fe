package main

import (
	"encoding/json"
	"io"
	"strconv"
)

// recordReferences prints the fingerprints of gnmf and pagerank-wire
// outputs after checkIter runs, for seeds 0..n-1, in the measured
// configuration. Its output is reference.json.
func recordReferences(out io.Writer, n int) error {
	plane, err := startWirePlane(clusterWorkers)
	if err != nil {
		return err
	}
	defer plane.close()
	all := make(map[string]map[string]fingerprint)
	for _, w := range []iterWorkload{gnmfFull, pagerankFull} {
		var addrs []string
		if w.wire {
			addrs = plane.addrs
		}
		all[w.refKey()] = make(map[string]fingerprint)
		for seed := int64(0); seed < int64(n); seed++ {
			fp, err := w.reference(w.generate(seed), addrs, true)
			if err != nil {
				return err
			}
			all[w.refKey()][strconv.FormatInt(seed, 10)] = fp
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", " ")
	return enc.Encode(all)
}
