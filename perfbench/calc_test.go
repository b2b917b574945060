package main

import (
	"math"
	"testing"
	"time"

	"fastsafe/internal/core"
	"fastsafe/internal/host"
	"fastsafe/internal/sim"
	"fastsafe/internal/transport"
)

func TestQuantileKeepsTenSamplesBeyondTheTail(t *testing.T) {
	seq := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		q      float64
		want   int64
		enough bool
	}{
		{n: 1000, q: 0.99, want: 990, enough: true}, // 10 samples above 990
		{n: 999, q: 0.99, want: 990, enough: false}, // only 9 above
		{n: 2000, q: 0.99, want: 1980, enough: true},
		{n: 100, q: 0.50, want: 50, enough: true},
		{n: 100, q: 0.99, want: 99, enough: false},
		{n: 10000, q: 0.999, want: 9990, enough: true},
		{n: 1, q: 0.5, want: 1, enough: false},
	} {
		got, ok := quantile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.enough {
			t.Errorf("quantile(1..%d, %v) = %d, %v; want %d, %v", tc.n, tc.q, got, ok, tc.want, tc.enough)
		}
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("quantile of no samples reported enough samples")
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSharesAndUnexplained(t *testing.T) {
	// A 2 s run: 1e6 events at 400 ns is 0.2 of it, core's two entries
	// add to 0.3, and iova's 0.05 is nested inside core, so it is
	// reported but leaves the remainder alone.
	got, unexplained := shares([]layerCost{
		{layer: "sim", count: 1e6, ns: 400},
		{layer: "core", count: 1e3, ns: 500e3},
		{layer: "core", count: 2e3, ns: 50e3},
		{layer: "iova", count: 1e6, ns: 100, nested: true},
	}, 2)
	want := map[string]float64{"sim": 0.2, "core": 0.3, "iova": 0.05}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-12 {
			t.Errorf("%s.share = %v, want %v", layer, got[layer], w)
		}
	}
	if math.Abs(unexplained-0.5) > 1e-12 {
		t.Errorf("unexplained = %v, want 0.5", unexplained)
	}
	if got, u := shares([]layerCost{{layer: "sim", count: 1, ns: 1}}, 0); got["sim"] != 0 || u != 1 {
		t.Errorf("zero run time: share %v, unexplained %v; want 0, 1", got["sim"], u)
	}
}

// smallCluster is a short RDMA cluster window, small enough for a test.
var smallCluster = workload{
	name:    "small-cluster",
	warmup:  200 * sim.Microsecond,
	measure: 300 * sim.Microsecond,
	cluster: func(seed int64, shards int) host.ClusterConfig {
		return host.ClusterConfig{
			Hosts: 4, Traffic: host.Pairs, Op: transport.Write, Shards: shards,
			Host: host.Config{Mode: core.FNS, ATSEntries: 64, Seed: seed},
		}
	},
}

func TestEventTotalCountsEachEngineOnce(t *testing.T) {
	var totals [3]uint64
	for _, shards := range []int{1, 2} {
		m, err := build(&smallCluster, 7, shards)
		if err != nil {
			t.Fatal(err)
		}
		m.warm()
		m.run()
		if n := len(distinctEngines(m.hosts())); n != shards {
			t.Errorf("%d shards: %d distinct engines", shards, n)
		}
		totals[shards] = m.events()
		// The per-host gauges count a shared engine once per host on it.
		snap := m.registry().Snapshot()
		if naive := sumHosts(snap, m.prefixes(), "engine.fired"); shards == 1 && naive != 4*float64(totals[1]) {
			t.Errorf("1 shard: per-host gauges sum to %v, want 4 x %d", naive, totals[1])
		}
	}
	if totals[1] == 0 || totals[1] != totals[2] {
		t.Errorf("events: %d on one shard, %d on two; want equal and positive", totals[1], totals[2])
	}
}

// smallHost is a short strict-mode window with the serving fleet and the
// audit on, so every window histogram that stepping resets exists.
var smallHost = workload{
	name:    "small-host",
	warmup:  1 * sim.Millisecond,
	measure: 1 * sim.Millisecond,
	host: func(seed int64) host.Config {
		return host.Config{
			Mode: core.Strict, RxFlows: 5, Audit: true, Seed: seed,
			Serve: &host.ServeConfig{Conns: 16, Churn: 0.2, Cohort: 1},
		}
	},
}

// TestRunModesAreObservers checks that the benchmark's ways of running a
// model produce what a plain Run call does: warming up separately before
// Run, and stepping the engine with a timer around each step.
func TestRunModesAreObservers(t *testing.T) {
	for _, w := range []*workload{&smallHost, &smallCluster} {
		plain, err := build(w, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		if plain.c != nil {
			plain.c.Run(w.warmup, w.measure)
		} else {
			plain.h.Run(w.warmup, w.measure)
		}
		want := plain.output()

		warmed, err := build(w, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		warmed.warm()
		warmed.run()
		if got := warmed.output(); got != want {
			t.Errorf("%s: warm then run gives %+v, plain Run %+v", w.name, got, want)
		}

		stepped, err := build(w, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		stepped.warm()
		steps := 0
		if err := stepped.step(func(time.Duration) { steps++ }); err != nil {
			t.Fatal(err)
		}
		if got := stepped.output(); got != want {
			t.Errorf("%s: stepping gives %+v, plain Run %+v", w.name, got, want)
		}
		if steps == 0 {
			t.Errorf("%s: stepping fired no events", w.name)
		}
	}
}

func TestScaledCancelsHostSpeed(t *testing.T) {
	// A host twice as slow takes twice the CPU time for both the window
	// and the calibration kernel; the scaled figure does not move.
	if a, b := scaled(0.5, 0.1), scaled(1.0, 0.2); math.Abs(a-b) > 1e-12 {
		t.Errorf("scaled(0.5, 0.1) = %v, scaled(1.0, 0.2) = %v; want equal", a, b)
	}
	if got := scaled(0.3, refCalibS); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("at the reference speed scaled(0.3) = %v, want 0.3", got)
	}
}

func TestCalibrationWorkIsFixed(t *testing.T) {
	if a, b := calibrate(20_000), calibrate(20_000); a != b || a == 0 {
		t.Errorf("calibrate(20000) gave checksums %d and %d; want equal and non-zero", a, b)
	}
	if calibrate(20_000) == calibrate(30_000) {
		t.Error("calibrate gives the same checksum for different amounts of work")
	}
}
