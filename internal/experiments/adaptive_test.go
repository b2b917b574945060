package experiments

import (
	"reflect"
	"strconv"
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/sim"
)

// TestAdaptiveTrends locks the adaptive figure's headline claims: the
// controller switches at least twice (into strict within one sampling
// interval of the misbehaviour burst opening, back to F&S within one
// interval of it closing), the adaptive cell tracks the best static
// mode's goodput within 5% in every phase, the burst actually audits
// blocked DMAs in every cell, and no cell ever serves a stale DMA.
func TestAdaptiveTrends(t *testing.T) {
	o := tiny()
	tab := byID(t, "adaptive", o)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	f := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	rows := map[string][]string{}
	for _, r := range tab.Rows {
		rows[r[0]] = r
		if r[10] != "0" {
			t.Errorf("%s: stale_served=%s, want 0", r[0], r[10])
		}
		if r[8] == "0" || r[9] == "0" {
			t.Errorf("%s: vacuous audit (checked=%s blocked=%s)", r[0], r[8], r[9])
		}
	}
	for _, mode := range []string{"strict", "fns"} {
		if rows[mode][7] != "0" {
			t.Errorf("static %s reports %s switches", mode, rows[mode][7])
		}
	}
	if n := f(rows["adaptive"][7]); n < 2 {
		t.Errorf("adaptive switches = %g, want >= 2", n)
	}
	for p, col := range map[string]int{"clean": 4, "burst": 5, "memhog": 6} {
		if ratio := f(rows["adaptive"][col]); ratio < 0.95 {
			t.Errorf("adaptive %s phase tracks best static at %.2f, want >= 0.95", p, ratio)
		}
	}
	// The burst is where the static trade-off lives: strict's per-buffer
	// invalidations are exactly what the campaign's completion drops
	// stall, so static strict dips well below F&S there.
	if s, fn := f(rows["strict"][2]), f(rows["fns"][2]); s > 0.9*fn {
		t.Errorf("static strict burst goodput %.1f not below 0.9x fns %.1f", s, fn)
	}

	// The decision log pins the transition timing and directions.
	rs, warmup, e := adaptivePhases(o)
	dec := rs[2].Control
	if len(dec) < 2 {
		t.Fatalf("adaptive decisions = %d, want >= 2", len(dec))
	}
	burstStart := sim.Time(warmup + 2*e)
	burstEnd := sim.Time(warmup + 4*e)
	first, last := dec[0], dec[len(dec)-1]
	if first.From != core.FNS || first.To != core.Strict {
		t.Errorf("first decision %v, want fns->strict", first)
	}
	if first.At < burstStart || first.At > burstStart+sim.Time(e) {
		t.Errorf("fallback at %v, want within one interval of burst open %v", first.At, burstStart)
	}
	if last.From != core.Strict || last.To != core.FNS {
		t.Errorf("last decision %v, want strict->fns", last)
	}
	if last.At < burstEnd || last.At > burstEnd+sim.Time(e) {
		t.Errorf("recovery at %v, want within one interval of burst close %v", last.At, burstEnd)
	}
	for _, r := range rs {
		if r.Safety == nil || r.Safety.Violations() != 0 {
			t.Errorf("per-domain safety report: %+v, want zero violations", r.Safety)
		}
	}
}

// TestAdaptiveReplayableAcrossRunnerPools locks the second half of the
// controller determinism contract: the adaptive figure's table and its
// decision log are identical whether the cells run on one worker or
// eight — the runner pool only changes wall-clock time, never which
// switches fire or when.
func TestAdaptiveReplayableAcrossRunnerPools(t *testing.T) {
	serialOpts := tiny()
	serialOpts.Parallel = 1
	parOpts := tiny()
	parOpts.Parallel = 8
	serial := byID(t, "adaptive", serialOpts)
	par := byID(t, "adaptive", parOpts)
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("adaptive table diverges across runner pools:\n%s\nvs\n%s", par, serial)
	}
	srs, _, _ := adaptivePhases(serialOpts)
	prs, _, _ := adaptivePhases(parOpts)
	if !reflect.DeepEqual(srs[2].Control, prs[2].Control) {
		t.Fatalf("decision log diverges across runner pools:\n%v\nvs\n%v", prs[2].Control, srs[2].Control)
	}
}
