package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"fastsafe/internal/core"
	"fastsafe/internal/host"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
	"fastsafe/internal/transport"
)

// workload is one benchmark input: a simulator configuration and the
// fixed virtual window it runs. Statistics start after the warmup, which
// is long enough to fill the IOTLB, the PTcaches and the IOVA rcache.
type workload struct {
	name    string
	warmup  sim.Duration
	measure sim.Duration
	// host builds the single-host configuration; nil for clusters.
	host func(seed int64) host.Config
	// cluster builds the cluster configuration at a shard count; nil for
	// single hosts. shards is the count the workload is timed at.
	cluster func(seed int64, shards int) host.ClusterConfig
	shards  int
}

var workloads = []workload{
	{
		// The paper's Fig 2 regime: every page is mapped, unmapped and
		// invalidated, so core/iova/ptable/iommu dominate host time.
		name:    "strict-bulk",
		warmup:  10 * sim.Millisecond,
		measure: 20 * sim.Millisecond,
		host: func(seed int64) host.Config {
			return host.Config{Mode: core.Strict, RxFlows: 40, Seed: seed}
		},
	},
	{
		// The same layers used differently: connection rebirth takes the
		// IOVA tree path, responses map and unmap Tx buffers, invalidation
		// is deferred, and the audit hook runs on every translation.
		name:    "fns-serve-churn",
		warmup:  10 * sim.Millisecond,
		measure: 20 * sim.Millisecond,
		host: func(seed int64) host.Config {
			return host.Config{
				Mode: core.FNS, RxFlows: -1, Audit: true, Seed: seed,
				Serve: &host.ServeConfig{Conns: 256, Churn: 0.2, Cohort: 1},
			}
		},
	},
	{
		// The protection-layer bypass: one-sided writes through device
		// TLBs leave iova/ptable nearly idle and load fabric, ats and the
		// shard barrier. Two shards, because the machine has two cores.
		name:    "rdma-cluster",
		warmup:  2 * sim.Millisecond,
		measure: 4 * sim.Millisecond,
		cluster: func(seed int64, shards int) host.ClusterConfig {
			return host.ClusterConfig{
				Hosts: 16, Traffic: host.Pairs, Op: transport.Write, Shards: shards,
				Host: host.Config{Mode: core.FNS, ATSEntries: 64, Seed: seed},
			}
		},
		shards: 2,
	},
}

func findWorkload(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// model is one built simulation: a single host or a cluster.
type model struct {
	w *workload
	h *host.Host
	c *host.Cluster
}

// build constructs the workload's model. shards is ignored for single
// hosts.
func build(w *workload, seed int64, shards int) (*model, error) {
	m := &model{w: w}
	var err error
	if w.host != nil {
		m.h, err = host.New(w.host(seed))
	} else {
		m.c, err = host.NewCluster(w.cluster(seed, shards))
	}
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", w.name, err)
	}
	return m, nil
}

func (m *model) hosts() []*host.Host {
	if m.c != nil {
		return m.c.Hosts()
	}
	return []*host.Host{m.h}
}

func (m *model) registry() *stats.Registry {
	if m.c != nil {
		return m.c.Registry()
	}
	return m.h.Telemetry().Registry()
}

// prefixes returns each host's instrument-name prefix in the registry.
func (m *model) prefixes() []string {
	if m.c == nil {
		return []string{""}
	}
	ps := make([]string, len(m.c.Hosts()))
	for i := range ps {
		ps[i] = fmt.Sprintf("host%d.", i)
	}
	return ps
}

// events is the number of events fired so far, counted once per engine.
func (m *model) events() uint64 { return eventTotal(m.hosts()) }

// rounds is the shard coordinator's barrier count (0 on one engine).
func (m *model) rounds() uint64 {
	if m.c != nil {
		return m.c.Rounds()
	}
	return 0
}

// warm starts the workload and runs the warmup window. It leaves the
// model exactly where Host.Run and Cluster.Run would be after their own
// warmup, so a following run or step call simulates the same window.
func (m *model) warm() {
	if m.c != nil {
		// A zero-length window runs the warmup and takes read-only
		// snapshots; the second Run call's warmup is then a no-op.
		m.c.Run(m.w.warmup, 0)
		return
	}
	m.h.Start()
	m.h.Engine().Run(m.w.warmup)
}

// run simulates the measured window through the public Run entry point
// and returns the window's transport retransmits.
func (m *model) run() int64 {
	var rtx int64
	if m.c != nil {
		for _, r := range m.c.Run(m.w.warmup, m.w.measure).Hosts {
			rtx += r.Retransmits
		}
		return rtx
	}
	return m.h.Run(m.w.warmup, m.w.measure).Retransmits
}

// engine returns the model's one event engine, or an error when its
// hosts are spread over shards.
func (m *model) engine() (*sim.Engine, error) {
	engs := distinctEngines(m.hosts())
	if len(engs) != 1 {
		return nil, fmt.Errorf("%s: %d engines; stepping needs one", m.w.name, len(engs))
	}
	return engs[0], nil
}

// windowHistograms are the host-local histograms Host.Run and
// Cluster.Run reset when the measured window starts.
var windowHistograms = []string{
	"nic0.pcie.rx.latency_ns", "nic0.pcie.tx.latency_ns",
	"serve.latency_ns", "rpc.latency_ns",
}

// step simulates the measured window one Engine.Step at a time, passing
// each step's host time to rec. It does what Host.Run and Cluster.Run do
// after the warmup (reset the window histograms, run to the window's end)
// with the event loop driven from here, so its outputs must match run's.
func (m *model) step(rec func(time.Duration)) error {
	eng, err := m.engine()
	if err != nil {
		return err
	}
	reg := m.registry()
	for _, p := range m.prefixes() {
		for _, n := range windowHistograms {
			if hist := reg.LookupHistogram(p + n); hist != nil {
				hist.Reset()
			}
		}
	}
	end := m.w.warmup + m.w.measure
	for {
		// Engine.Run's loop condition: the head event's time, even when
		// that event was cancelled.
		if t, ok := eng.PeekTime(); !ok || t > end {
			break
		}
		t0 := time.Now()
		eng.Step()
		rec(time.Since(t0))
	}
	eng.Run(end)
	return nil
}

// output is what a run of the model produced: the digest of the final
// registry and the headline counts it covers.
type output struct {
	Digest         string `json:"digest"`
	Events         uint64 `json:"events"`
	NICBytes       int64  `json:"nic_bytes"`
	ServeCompleted int64  `json:"serve_completed"`
	ServeDeaths    int64  `json:"serve_deaths"`
}

// digestSkip is the one registry instrument left out of the digest, in
// every host: the memory bus's utilisation average. Host.Run folds it
// forward to the window's end when it computes Results, a read the
// registry cannot make, and nothing simulates after that fold.
const digestSkip = "mem.util"

func (m *model) output() output {
	reg := m.registry()
	snap := reg.Snapshot()
	h := sha256.New()
	for _, line := range strings.Split(reg.String(), "\n") {
		name, _, _ := strings.Cut(line, "=")
		if name == digestSkip || strings.HasSuffix(name, "."+digestSkip) {
			continue
		}
		fmt.Fprintln(h, line)
	}
	events := m.events()
	fmt.Fprintf(h, "events=%d\n", events)
	ps := m.prefixes()
	return output{
		Digest:         hex.EncodeToString(h.Sum(nil))[:16],
		Events:         events,
		NICBytes:       int64(sumHosts(snap, ps, "nic0.bytes")),
		ServeCompleted: int64(sumHosts(snap, ps, "serve.completed")),
		ServeDeaths:    int64(sumHosts(snap, ps, "serve.deaths")),
	}
}

// staleCounters are the per-host registry counters that count a DMA
// served from a mapping that no longer exists: the auditor's (present
// only when auditing), the IOMMU's own stale-use detectors, and the
// device TLB's. Every workload runs a strict-safety mode, so all must
// stay zero.
var staleCounters = []string{
	"audit.stale_unmapped", "audit.stale_remapped", "audit.stale_ats", "audit.stale_cap",
	"iommu.stale_iotlb_uses", "iommu.stale_pt_uses", "nic0.ats.stale_hits",
}

// checkInvariants returns why a run's window is wrong on any seed, or ""
// when it is fine: nothing was served stale and goodput was positive.
func checkInvariants(before, after map[string]float64, prefixes []string) string {
	for _, n := range staleCounters {
		if v := sumHosts(after, prefixes, n); v != 0 {
			return fmt.Sprintf("%s = %v, want 0", n, v)
		}
	}
	// A serving fleet's goodput is its completed requests; bulk and RDMA
	// goodput is the payload the NIC moved.
	good := "nic0.bytes"
	if _, serving := after[prefixes[0]+"serve.completed"]; serving {
		good = "serve.completed"
	}
	if d := sumHosts(after, prefixes, good) - sumHosts(before, prefixes, good); d <= 0 {
		return fmt.Sprintf("window %s grew by %v, want > 0", good, d)
	}
	return ""
}

// sumHosts adds a host-local instrument over every host prefix; missing
// instruments count as zero.
func sumHosts(snap map[string]float64, prefixes []string, name string) float64 {
	var s float64
	for _, p := range prefixes {
		s += snap[p+name]
	}
	return s
}
