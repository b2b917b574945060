package host

import (
	"runtime"
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/race"
	"fastsafe/internal/sim"
	"fastsafe/internal/transport"
)

// allocBudgetPerEvent is the datapath's allocation target: at most half
// a heap allocation per fired event once a simulation is warm. A
// per-packet closure, boxed payload or freshly built mapping costs
// several allocations per packet, and a packet fires about ten events,
// so any of them put back would break this budget.
const allocBudgetPerEvent = 0.5

// TestHostDatapathAllocBudget runs the three benchmark workloads — bulk
// strict Rx, an F&S serving fleet with churn and audit, and a sharded
// RDMA write cluster — past their warmup and counts heap allocations
// over the measured window.
func TestHostDatapathAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const seed = 1
	for _, w := range []struct {
		name            string
		warmup, measure sim.Duration
		host            *Config
		cluster         *ClusterConfig
	}{
		{name: "strict-bulk", warmup: 10 * sim.Millisecond, measure: 20 * sim.Millisecond,
			host: &Config{Mode: core.Strict, RxFlows: 40, Seed: seed}},
		{name: "fns-serve-churn", warmup: 10 * sim.Millisecond, measure: 20 * sim.Millisecond,
			host: &Config{Mode: core.FNS, RxFlows: -1, Audit: true, Seed: seed,
				Serve: &ServeConfig{Conns: 256, Churn: 0.2, Cohort: 1}}},
		{name: "rdma-cluster", warmup: 2 * sim.Millisecond, measure: 4 * sim.Millisecond,
			cluster: &ClusterConfig{Hosts: 16, Traffic: Pairs, Op: transport.Write, Shards: 2,
				Host: Config{Mode: core.FNS, ATSEntries: 64, Seed: seed}}},
	} {
		t.Run(w.name, func(t *testing.T) {
			var hosts []*Host
			var window func()
			if w.host != nil {
				h, err := New(*w.host)
				if err != nil {
					t.Fatal(err)
				}
				hosts = []*Host{h}
				h.Start()
				h.Engine().Run(w.warmup)
				window = func() { h.Run(w.warmup, w.measure) }
			} else {
				c, err := NewCluster(*w.cluster)
				if err != nil {
					t.Fatal(err)
				}
				hosts = c.Hosts()
				c.Run(w.warmup, 0)
				window = func() { c.Run(w.warmup, w.measure) }
			}
			ev0 := firedEvents(hosts)
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			window()
			runtime.ReadMemStats(&m1)
			events := firedEvents(hosts) - ev0
			if events == 0 {
				t.Fatal("the measured window fired no events")
			}
			perEvent := float64(m1.Mallocs-m0.Mallocs) / float64(events)
			t.Logf("%d events, %.4f allocations per event", events, perEvent)
			if perEvent > allocBudgetPerEvent {
				t.Fatalf("%.3f allocations per fired event, budget %.1f", perEvent, allocBudgetPerEvent)
			}
		})
	}
}

// firedEvents counts the events fired on the hosts' engines, each
// engine once.
func firedEvents(hs []*Host) uint64 {
	seen := map[*sim.Engine]bool{}
	var n uint64
	for _, h := range hs {
		if e := h.Engine(); !seen[e] {
			seen[e] = true
			n += e.Fired()
		}
	}
	return n
}
