package main

import (
	"math"
	"sort"

	"fastsafe/internal/host"
	"fastsafe/internal/sim"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// distinctEngines returns the hosts' event engines, each once, in host
// order. Hosts of an unsharded cluster share one engine; a sharded
// cluster has one per shard.
func distinctEngines(hs []*host.Host) []*sim.Engine {
	seen := make(map[*sim.Engine]bool)
	var engs []*sim.Engine
	for _, h := range hs {
		if e := h.Engine(); !seen[e] {
			seen[e] = true
			engs = append(engs, e)
		}
	}
	return engs
}

// eventTotal counts the events the hosts' engines fired, once per
// engine. Summing each host's engine.fired gauge instead counts a shared
// engine once per host that runs on it.
func eventTotal(hs []*host.Host) uint64 {
	var n uint64
	for _, e := range distinctEngines(hs) {
		n += e.Fired()
	}
	return n
}

// quantile returns the nearest-rank q-quantile of sorted samples and
// whether at least minTail samples lie above it, so that the value is
// not set by a handful of outliers.
func quantile(sorted []int64, q float64) (int64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i], n-1-i >= minTail
}

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// layerCost is one layer's work in the measured window: how many calls
// it took and what one call costs in host time.
type layerCost struct {
	layer string
	count float64
	ns    float64
	// nested marks a layer whose calls happen inside another listed
	// layer's calls (iova and ptable inside core), so its time is already
	// in that layer's share.
	nested bool
}

// shares returns each layer's share of the run, count x ns/call divided
// by the run's host time, and the remainder no top-level layer explains:
// the glue in the host package between layer calls.
func shares(costs []layerCost, runS float64) (map[string]float64, float64) {
	out := make(map[string]float64, len(costs))
	explained := 0.0
	for _, c := range costs {
		s := 0.0
		if runS > 0 {
			s = c.count * c.ns / 1e9 / runS
		}
		out[c.layer] += s
		if !c.nested {
			explained += s
		}
	}
	return out, 1 - explained
}
