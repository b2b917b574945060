// Command fssim runs ad-hoc host simulations and prints their measured
// results, for exploring configurations outside the paper's sweeps.
//
// Example:
//
//	fssim -mode fns -flows 20 -ring 512 -mtu 4096 -cores 5 -ms 40
//	fssim -mode strict -seeds 8 -parallel 4   # seed study, 4 workers
//	fssim -mode strict -storage 2 -storagedevs 4   # 4 co-tenant devices
//	fssim -mode fns -nics 1 -devmode strict   # second NIC, strict domain
//	fssim -mode strict -memhog 12 -timeline   # per-interval series as CSV
//	fssim -mode fns -faults 1 -faultseed 7    # canonical fault campaign
//	fssim -hosts 8 -mode fns -traffic incast  # 8-host cluster, 7:1 incast
//	fssim -hosts 4 -traffic alltoall -oversub 2   # oversubscribed core
//	fssim -hosts 64 -shards 4 -traffic pairs  # conservative-parallel engine
//	fssim -hosts 8 -traffic pairs -rdma write -atsentries 1024   # one-sided
//	fssim -mode fns -serve -churn 0.3 -conns 48      # serving-fleet churn
//	fssim -mode strict -serve -churn 0.5 -cohort 8 -audit   # aggregated cohorts
//
// -serve replaces the bulk iperf flows with the serving-fleet churn
// scenario: -conns open-loop connections with Poisson arrivals and
// bounded-Pareto request/response sizes, each dying with probability
// -churn per request and reborn with a fresh DMA buffer (so map/unmap
// and IOVA alloc/free rates scale with churn). -cohort K aggregates K
// connections per simulated flow-aggregate — counters and goodput stay
// identical to the exact per-flow model; only latency attribution is
// shared. -flows still attaches bulk flows next to the fleet when set
// explicitly. The serving line (requests served, goodput, latency
// tails, deaths, expiries) prints after the host line.
//
// -shards N splits a cluster run across N engine shards executed with
// conservative parallel DES (results stay deterministic and independent
// of the shard count; wall-clock drops on multi-core machines for
// balanced traffic patterns).
//
// -hosts N (N >= 2) switches to cluster mode: N full hosts — each with
// its own IOMMU, page tables, cores and devices — exchange traffic over
// a switched fabric instead of the abstract remote peer. -traffic picks
// the pattern (incast: everyone sends to host 0; alltoall; pairs),
// -flowsperpair scales the flow count, -fabricgbps and -oversub shape
// the fabric. Output is the aggregate line plus one indented line per
// host; -audit prints each host's safety tally.
//
// -rdma picks the cluster peer-flow verb: the default sendrecv posts
// receives on the remote CPU, while read and write are one-sided — the
// initiator's NIC addresses a registered window on the peer directly and
// the peer's cores never touch the data path. -atsentries N gives every
// device an N-entry translation cache (PCIe ATS): translations hit the
// device TLB, unmaps send ATC-invalidate messages, and the per-device
// breakdown reports hit rate, invalidations and (for unsafe modes) stale
// translations served.
//
// -faults enables deterministic fault injection and the translation
// auditor: a bare number is a canonical-campaign intensity, otherwise a
// comma-separated key=value spec like "invdrop=0.02,linkflap=3ms" (see
// internal/fault). The safety tally prints after the result line; -audit
// runs the auditor alone on a fault-free simulation.
//
// -timeline samples the telemetry series every -sampleus microseconds of
// virtual time and, after the result line, prints them as wide CSV (one
// row per sampling instant, one column per series) for plotting.
//
// With -seeds N > 1 the same configuration is run under N consecutive
// seeds (starting at -seed), fanned across -parallel workers; results
// print in seed order.
//
// Co-tenant DMA devices share the host's IOMMU with the primary NIC,
// each in its own protection domain: -storagedevs attaches that many
// storage controllers reading at -storage GB/s apiece, -nics attaches
// extra full network datapaths, and -devmode overrides their protection
// mode (default: the host's -mode). When devices are attached the
// per-device breakdown prints after the host line.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"fastsafe/internal/fabric"
	"fastsafe/internal/fault"
	"fastsafe/internal/host"
	"fastsafe/internal/modespec"
	"fastsafe/internal/runner"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
	"fastsafe/internal/transport"
)

func main() {
	mode := flag.String("mode", "strict", "protection mode: "+strings.Join(modespec.Valid(), "|"))
	flows := flag.Int("flows", 5, "bulk Rx flows")
	txflows := flag.Int("txflows", 0, "bulk Tx flows (each on its own extra core)")
	cores := flag.Int("cores", 5, "cores serving Rx flows")
	ring := flag.Int("ring", 256, "Rx ring size in packets per core")
	mtu := flag.Int("mtu", 4096, "MTU in bytes")
	descPages := flag.Int("desc", 64, "pages per Rx descriptor")
	ms := flag.Int("ms", 30, "measurement window, milliseconds")
	warmup := flag.Int("warmup", 10, "warmup window, milliseconds")
	seed := flag.Int64("seed", 1, "simulation seed (first seed with -seeds)")
	seeds := flag.Int("seeds", 1, "number of consecutive seeds to run")
	parallel := flag.Int("parallel", runtime.NumCPU(), "simulations to run concurrently")
	trace := flag.Bool("trace", false, "summarise the PTcache-L3 locality trace")
	timeline := flag.Bool("timeline", false, "sample per-interval series and print them as CSV")
	sampleus := flag.Int("sampleus", 500, "sampling interval for -timeline, microseconds")
	memhog := flag.Float64("memhog", 0, "co-tenant memory antagonist, GB/s")
	storage := flag.Float64("storage", 0, "co-tenant storage device read rate, GB/s each")
	storagedevs := flag.Int("storagedevs", 0, "co-tenant storage devices (default 1 when -storage is set)")
	nics := flag.Int("nics", 0, "extra co-tenant NIC datapaths")
	devmode := flag.String("devmode", "", "co-tenant device protection mode (default: -mode)")
	controlSpec := flag.String("control", "", "adaptive control plane: ';'-separated rules like \"guard,metric=audit.blocked,high=1,low=0,safe=strict,fast=fns,cooldown=2ms\" plus optional every=<dur>")
	faults := flag.String("faults", "", "fault plan: campaign intensity or key=value spec (implies -audit)")
	faultseed := flag.Int64("faultseed", 0, "fault-injector seed (0: inherit -seed)")
	audit := flag.Bool("audit", false, "cross-check every DMA translation against the live page table")
	hosts := flag.Int("hosts", 0, "cluster size: simulate N full hosts on a switched fabric (0: single host)")
	traffic := flag.String("traffic", "incast", "cluster traffic pattern: incast|alltoall|pairs")
	fabricgbps := flag.Float64("fabricgbps", 0, "fabric port line rate, Gbps (0: NIC line rate)")
	oversub := flag.Float64("oversub", 0, "fabric core oversubscription factor (0: non-blocking)")
	flowsperpair := flag.Int("flowsperpair", 1, "cluster flows per (src,dst) host pair")
	shards := flag.Int("shards", 1, "cluster engine shards for conservative-parallel execution (1: single engine)")
	rdma := flag.String("rdma", "", "cluster peer-flow verb: sendrecv|read|write (default sendrecv; read/write are one-sided)")
	atsentries := flag.String("atsentries", "", "device-TLB (ATS cache) entries per device; 0 or empty disables the device cache")
	serve := flag.Bool("serve", false, "run the serving-fleet churn scenario instead of bulk flows")
	churn := flag.String("churn", "0.2", "serving-fleet per-request connection death probability, in (0, 1]")
	conns := flag.String("conns", "48", "serving-fleet connection count")
	cohortSize := flag.String("cohort", "1", "connections per aggregated flow cohort (1: exact per-flow model)")
	flag.Parse()

	m, err := modespec.Host(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fssim:", err)
		os.Exit(2)
	}
	op, err := modespec.RDMA(*rdma)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fssim:", err)
		os.Exit(2)
	}
	if op.OneSided() && *hosts == 0 {
		fmt.Fprintln(os.Stderr, "fssim: -rdma needs cluster mode (-hosts >= 2): one-sided verbs run between full hosts")
		os.Exit(2)
	}
	ats, err := modespec.ATSEntries(*atsentries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fssim:", err)
		os.Exit(2)
	}
	if *seeds < 1 {
		fmt.Fprintln(os.Stderr, "fssim: -seeds must be >= 1")
		os.Exit(2)
	}
	var plan fault.Plan
	if *faults != "" {
		if plan, err = fault.Parse(*faults); err != nil {
			fmt.Fprintln(os.Stderr, "fssim:", err)
			os.Exit(2)
		}
	}
	ctl, err := modespec.Control(*controlSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fssim:", err)
		os.Exit(2)
	}

	devMode, err := modespec.Device(*devmode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fssim:", err)
		os.Exit(2)
	}
	nStorage := *storagedevs
	if nStorage == 0 && *storage > 0 {
		nStorage = 1
	}
	if nStorage > 0 && *storage <= 0 {
		fmt.Fprintln(os.Stderr, "fssim: -storagedevs needs a positive -storage rate")
		os.Exit(2)
	}
	var topo host.Topology
	for i := 0; i < nStorage; i++ {
		topo.Storage = append(topo.Storage, host.StorageSpec{ReadGBps: *storage, Mode: devMode})
	}
	for i := 0; i < *nics; i++ {
		topo.NICs = append(topo.NICs, host.NICSpec{Mode: devMode})
	}
	multidev := nStorage+*nics > 0

	var serveCfg *host.ServeConfig
	if *serve {
		ch, err := modespec.Churn(*churn)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fssim:", err)
			os.Exit(2)
		}
		nc, err := modespec.Conns(*conns)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fssim:", err)
			os.Exit(2)
		}
		k, err := modespec.CohortSize(*cohortSize)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fssim:", err)
			os.Exit(2)
		}
		serveCfg = &host.ServeConfig{Conns: nc, Churn: ch, Cohort: k}
		// The fleet is the workload: drop the default bulk flows unless
		// the user asked for them explicitly.
		flowsSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "flows" {
				flowsSet = true
			}
		})
		if !flowsSet {
			*flows = -1
		}
	} else {
		for name, val := range map[string]string{"churn": *churn, "conns": *conns, "cohort": *cohortSize} {
			set := false
			flag.Visit(func(f *flag.Flag) {
				if f.Name == name {
					set = true
				}
			})
			if set {
				fmt.Fprintf(os.Stderr, "fssim: -%s %s needs -serve (the serving-fleet churn scenario)\n", name, val)
				os.Exit(2)
			}
		}
	}

	var sampleEvery sim.Duration
	if *timeline {
		if *sampleus <= 0 {
			fmt.Fprintln(os.Stderr, "fssim: -sampleus must be positive")
			os.Exit(2)
		}
		sampleEvery = sim.Duration(*sampleus) * sim.Microsecond
	}

	hostCfg := func(s int64) host.Config {
		return host.Config{
			Mode:            m,
			Cores:           *cores,
			RxFlows:         *flows,
			TxFlows:         *txflows,
			RingPackets:     *ring,
			MTU:             *mtu,
			DescriptorPages: *descPages,
			Seed:            s,
			MemHogGBps:      *memhog,
			Topology:        topo,
			Serve:           serveCfg,
			Control:         ctl,
			Faults:          plan,
			FaultSeed:       *faultseed,
			Audit:           *audit,
			ATSEntries:      ats,
			Telemetry: host.TelemetryConfig{
				SampleEvery: sampleEvery,
				TraceL3:     *trace,
				TraceLimit:  200000,
			},
		}
	}

	if *hosts > 0 {
		runCluster(*hosts, *traffic, *flowsperpair, *fabricgbps, *oversub, *shards, op,
			hostCfg, *seed, *seeds, *parallel,
			sim.Duration(*warmup)*sim.Millisecond, sim.Duration(*ms)*sim.Millisecond)
		return
	}

	runSeed := func(s int64) (host.Results, error) {
		h, err := host.New(hostCfg(s))
		if err != nil {
			return host.Results{}, err
		}
		return h.Run(sim.Duration(*warmup)*sim.Millisecond, sim.Duration(*ms)*sim.Millisecond), nil
	}

	jobs := make([]runner.Job[host.Results], *seeds)
	for i := 0; i < *seeds; i++ {
		s := *seed + int64(i)
		jobs[i] = func(context.Context) (host.Results, error) { return runSeed(s) }
	}
	results, err := runner.Collect(context.Background(), runner.Config{Workers: *parallel}, jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	for i, r := range results {
		if *seeds > 1 {
			fmt.Printf("seed %d:\n", *seed+int64(i))
		}
		fmt.Println(r)
		fmt.Printf("per-core CPU utilisation: ")
		for _, u := range r.CPUUtil {
			fmt.Printf("%3.0f%% ", u*100)
		}
		fmt.Println()
		if r.ServeLatency != nil {
			printServing("serving", r)
		}
		if r.Safety != nil {
			fmt.Printf("safety: %s (%d faults injected)\n", r.Safety, r.FaultsInjected)
		}
		if len(r.Control) > 0 {
			fmt.Printf("control: %d mode switches\n", len(r.Control))
			for _, d := range r.Control {
				fmt.Printf("  %s\n", d)
			}
		}
		if multidev {
			fmt.Println(r.DeviceTable())
		}
		if r.Trace != nil {
			fmt.Printf("L3 locality: %d allocs, frac>=32 %.3f, frac>=64 %.3f, frac>=128 %.3f\n",
				len(r.Trace.Dists), r.Trace.FractionAbove(32), r.Trace.FractionAbove(64), r.Trace.FractionAbove(128))
		}
		if len(r.Timeline) > 0 {
			printTimeline(r.Timeline)
		}
	}
}

// runCluster simulates N full hosts on a switched fabric and prints the
// aggregate plus per-host results (and per-host safety when auditing).
func runCluster(hosts int, traffic string, flowsPerPair int, fabricGbps, oversub float64,
	shards int, op transport.Op, hostCfg func(int64) host.Config, seed int64, seeds, parallel int,
	warmup, measure sim.Duration) {
	tp, err := host.ParseTraffic(traffic)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fssim:", err)
		os.Exit(2)
	}
	runSeed := func(s int64) (host.ClusterResults, error) {
		c, err := host.NewCluster(host.ClusterConfig{
			Hosts:        hosts,
			Traffic:      tp,
			FlowsPerPair: flowsPerPair,
			Shards:       shards,
			Op:           op,
			Host:         hostCfg(s),
			Fabric:       fabric.Config{PortGbps: fabricGbps, Oversub: oversub},
		})
		if err != nil {
			return host.ClusterResults{}, err
		}
		return c.Run(warmup, measure), nil
	}
	jobs := make([]runner.Job[host.ClusterResults], seeds)
	for i := 0; i < seeds; i++ {
		s := seed + int64(i)
		jobs[i] = func(context.Context) (host.ClusterResults, error) { return runSeed(s) }
	}
	results, err := runner.Collect(context.Background(), runner.Config{Workers: parallel}, jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for i, r := range results {
		if seeds > 1 {
			fmt.Printf("seed %d:\n", seed+int64(i))
		}
		fmt.Println(r)
		for j, hr := range r.Hosts {
			if hr.ServeLatency != nil {
				printServing(fmt.Sprintf("host%d serving", j), hr)
			}
			if hr.Safety != nil {
				fmt.Printf("host%d safety: %s\n", j, hr.Safety)
			}
		}
	}
}

// printServing renders one host's serving-fleet line: completions,
// goodput, latency tails and churn accounting.
func printServing(label string, r host.Results) {
	us := func(q float64) float64 { return float64(r.ServeLatency.Quantile(q)) / 1e3 }
	fmt.Printf("%s: served=%d goodput=%.1fGbps p50=%.1fus p99=%.1fus p999=%.1fus deaths=%d expired=%d\n",
		label, r.ServeCompleted, r.ServeGbps, us(0.50), us(0.99), us(0.999), r.ServeDeaths, r.ServeExpired)
}

// printTimeline renders the sampled series as wide CSV: one row per
// sampling instant, one column per series (they share the sampler's
// clock, so the times line up by construction).
func printTimeline(series []stats.Series) {
	fmt.Print("t_us")
	for _, s := range series {
		fmt.Printf(",%s", s.Name)
	}
	fmt.Println()
	for i := range series[0].Times {
		fmt.Printf("%.0f", float64(series[0].Times[i])/1e3)
		for _, s := range series {
			fmt.Printf(",%g", s.Values[i])
		}
		fmt.Println()
	}
}
