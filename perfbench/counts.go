package main

import "strings"

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowCounts reads the measured window's per-layer work from the
// registry snapshots taken at its start and end, summed over hosts. The
// counts are exact for a seed: a change that only speeds up the
// simulator must leave every one of them where it was.
func windowCounts(m *model, before, after map[string]float64, rounds uint64, rtx int64, events uint64) map[string]metric {
	ps := m.prefixes()
	d := func(n string) float64 { return sumHosts(after, ps, n) - sumHosts(before, ps, n) }
	// fabric sums every switch link's counter with the given suffix.
	fabric := func(suffix string) float64 {
		var s float64
		for n, v := range after {
			if strings.HasPrefix(n, "fabric.") && strings.HasSuffix(n, suffix) {
				s += v - before[n]
			}
		}
		return s
	}
	// Every histogram the window feeds was reset when the window began.
	var observed float64
	reg := m.registry()
	for _, p := range ps {
		for _, n := range windowHistograms {
			if h := reg.LookupHistogram(p + n); h != nil {
				observed += float64(h.Count())
			}
		}
	}
	translations := d("iommu.translations")
	iovaAllocs := d("nic0.iova_allocs")
	dmas := d("nic0.pcie.rx.dmas") + d("nic0.pcie.tx.dmas")
	arrivals := d("nic0.arrived")
	return map[string]metric{
		"sim.events":                       {float64(events), "count"},
		"sim.rounds":                       {float64(rounds), "count"},
		"sim.events_per_round":             {frac(float64(events), float64(rounds)), "ratio"},
		"iommu.translations":               {translations, "count"},
		"iommu.iotlb_hit_frac":             {frac(d("iommu.iotlb_hits"), translations), "ratio"},
		"iommu.walk_reads_per_translation": {frac(d("iommu.mem_reads"), translations), "ratio"},
		"iommu.inv_requests":               {d("iommu.inv_requests"), "count"},
		"iova.allocs":                      {iovaAllocs, "count"},
		"iova.magazine_frac":               {frac(d("nic0.iova.cache_allocs"), iovaAllocs), "ratio"},
		"iova.tree_visits_per_alloc":       {frac(d("nic0.iova.nodes_visited"), d("nic0.iova.tree_allocs")), "ratio"},
		"ptable.pages_mapped":              {d("nic0.pages_mapped"), "count"},
		"ptable.pages_unmapped":            {d("nic0.pages_unmapped"), "count"},
		"core.rx_descs_mapped":             {d("nic0.rx_descs_mapped"), "count"},
		"core.tx_pkts_mapped":              {d("nic0.tx_pkts_mapped"), "count"},
		"pcie.dmas":                        {dmas, "count"},
		"pcie.queue_ns_per_dma":            {frac(d("nic0.pcie.rx.queue_ns")+d("nic0.pcie.tx.queue_ns"), dmas), "ns"},
		"walker.reads":                     {d("walker.reads"), "count"},
		"nic.arrivals":                     {arrivals, "count"},
		"nic.drop_frac":                    {frac(d("nic0.dropped"), arrivals), "ratio"},
		"transport.retransmits":            {float64(rtx), "count"},
		"ats.hits":                         {d("nic0.ats.hits"), "count"},
		"ats.hit_frac":                     {frac(d("nic0.ats.hits"), d("nic0.ats.lookups")), "ratio"},
		"fabric.packets":                   {fabric(".up.packets"), "count"},
		"fabric.mark_frac":                 {frac(fabric(".marked"), fabric(".packets")), "ratio"},
		"serve.completed":                  {d("serve.completed"), "count"},
		"serve.deaths":                     {d("serve.deaths"), "count"},
		"stats.observations":               {observed, "count"},
	}
}

// layerCosts pairs each layer's window count with the probed host time
// of the call that does that work.
func layerCosts(counts map[string]metric, p map[string]probeResult) []layerCost {
	c := func(name string) float64 { return counts[name].Value }
	ns := func(op string) float64 { return p[op].ns }
	return []layerCost{
		// Every event is one schedule and one fire.
		{layer: "sim", count: c("sim.events"), ns: ns("sim.schedule_fire")},
		{layer: "core", count: c("core.rx_descs_mapped"), ns: ns("core.map_rx") + ns("core.unmap_rx")},
		{layer: "core", count: c("core.tx_pkts_mapped"), ns: ns("core.map_tx")},
		// Invalidations run inside core's unmaps; translations do not.
		{layer: "iommu", count: c("iommu.translations"), ns: ns("iommu.translate")},
		{layer: "iova", count: c("iova.allocs"), ns: ns("iova.alloc_free"), nested: true},
		{layer: "ptable", count: c("ptable.pages_mapped"), ns: ns("ptable.map_unmap"), nested: true},
		{layer: "pcie", count: c("pcie.dmas"), ns: ns("pcie.submit")},
		// An arrival pumps the Rx ring: its call includes the
		// translations and DMA submits counted under iommu and pcie.
		{layer: "nic", count: c("nic.arrivals"), ns: ns("nic.arrive"), nested: true},
		// One segment-and-ACK step per arriving segment.
		{layer: "transport", count: c("nic.arrivals"), ns: ns("transport.segment_ack")},
		{layer: "fabric", count: c("fabric.packets"), ns: ns("fabric.send")},
		// ATC misses become IOMMU translations, so only hits are ats's.
		{layer: "ats", count: c("ats.hits"), ns: ns("ats.translate")},
		{layer: "stats", count: c("stats.observations"), ns: ns("stats.observe")},
	}
}
