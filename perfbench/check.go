package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"dmac/internal/matrix"
)

// relTol is the relative tolerance of every output check.
const relTol = 1e-9

// fingerprint summarizes a set of named output grids and scalars by a few
// order-sensitive statistics per grid, so two results can be compared
// within relTol without keeping either in memory.
type fingerprint map[string][]float64

// fingerprintOf computes the fingerprint of the named grids and scalars.
// Per grid: rows, cols, sum, sum of squares, a position-weighted sum (which
// catches transposed or shuffled cells), min and max. It walks the blocks in
// their storage format, so a sparse input is never densified.
func fingerprintOf(grids map[string]*matrix.Grid, scalars map[string]float64) fingerprint {
	fp := make(fingerprint, len(grids)+len(scalars))
	for name, g := range grids {
		var sum, sq, weighted float64
		var stored int
		lo, hi := math.Inf(1), math.Inf(-1)
		cell := func(i, j int, v float64) {
			stored++
			sum += v
			sq += v * v
			weighted += v * (1 + float64((i*g.Cols()+j)%101)/101)
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		for bi := 0; bi < g.BlockRows(); bi++ {
			for bj := 0; bj < g.BlockCols(); bj++ {
				r0, c0 := bi*g.BlockSize(), bj*g.BlockSize()
				switch b := g.Block(bi, bj).(type) {
				case *matrix.CSCBlock:
					b.EachNZ(func(i, j int, v float64) { cell(r0+i, c0+j, v) })
				default:
					for i := 0; i < b.Rows(); i++ {
						for j := 0; j < b.Cols(); j++ {
							cell(r0+i, c0+j, b.At(i, j))
						}
					}
				}
			}
		}
		if stored < g.Rows()*g.Cols() {
			lo, hi = math.Min(lo, 0), math.Max(hi, 0)
		}
		fp[name] = []float64{float64(g.Rows()), float64(g.Cols()), sum, sq, weighted, lo, hi}
	}
	for name, v := range scalars {
		fp["scalar:"+name] = []float64{v}
	}
	return fp
}

// closeRel reports whether a and b agree within relTol relative to the
// larger magnitude (exactly, for zeros).
func closeRel(a, b float64) bool {
	if a == b {
		return true
	}
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// compare returns nil when got matches want on every key and statistic.
func (want fingerprint) compare(got fingerprint) error {
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(got) != len(want) {
		return fmt.Errorf("outputs %d, want %d", len(got), len(want))
	}
	for _, k := range keys {
		w, g := want[k], got[k]
		if len(w) != len(g) {
			return fmt.Errorf("%s: %d statistics, want %d", k, len(g), len(w))
		}
		for i := range w {
			if !closeRel(w[i], g[i]) {
				return fmt.Errorf("%s statistic %d: got %.17g, want %.17g", k, i, g[i], w[i])
			}
		}
	}
	return nil
}

// finite reports whether every statistic is a finite number.
func (fp fingerprint) finite() bool {
	for _, vs := range fp {
		for _, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// referenceJSON holds output fingerprints recorded with -record: for each
// iterative workload at its measured scale ("gnmf/10") and seed, the
// outputs after checkIter runs.
//
//go:embed reference.json
var referenceJSON []byte

// recordedReference returns the recorded fingerprint of a workload key at a
// seed, if one was recorded.
func recordedReference(key string, seed int64) (fingerprint, bool, error) {
	var all map[string]map[string]fingerprint
	if err := json.Unmarshal(referenceJSON, &all); err != nil {
		return nil, false, fmt.Errorf("reference.json: %w", err)
	}
	fp, ok := all[key][strconv.FormatInt(seed, 10)]
	return fp, ok, nil
}
