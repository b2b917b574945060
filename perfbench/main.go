// Command perfbench measures the host time the simulator takes to run
// three fixed workloads, and checks on every run that the simulated
// outputs are right. Simulated time is only a correctness fingerprint
// here: every timing it reports is host time, as process CPU time scaled
// by a calibration kernel (see clock.go).
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload strict-bulk --seed 0 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// drives the event loop one step at a time, probes each layer's public
// functions on the model the run left behind, and reports per-layer
// metrics. The last line of standard output is one JSON object.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// minReps is the fewest repetitions a run makes, however short --seconds.
const minReps = 3

// referenceSeed is the benchmark seed whose outputs reference.json holds.
const referenceSeed = 0

//go:embed reference.json
var referenceJSON []byte

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() error {
	name := flag.String("workload", "", "workload to run (strict-bulk, fns-serve-churn, rdma-cluster)")
	seed := flag.Int64("seed", referenceSeed, "workload seed (>= 0); the simulator runs at seed+1")
	seconds := flag.Int("seconds", 20, "host seconds to spend repeating the workload")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	spansDir := flag.String("spans-dir", ".bench_build/spans", "directory the traced run writes its spans to")
	updateRef := flag.String("update-reference", "", "run the workload once at the reference seed and write its outputs into this reference file")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seed < 0 {
		return fmt.Errorf("--seed %d: want >= 0", *seed)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d: want >= 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if *updateRef != "" {
		return updateReference(w, *updateRef)
	}
	// One P: the host is shared, and a second running thread would
	// measure the scheduler as much as the simulator.
	runtime.GOMAXPROCS(1)
	refs, err := loadReferences(referenceJSON)
	if err != nil {
		return err
	}
	b := &bench{w: w, seed: *seed + 1, deadline: time.Now().Add(time.Duration(*seconds) * time.Second)}
	if *seed == referenceSeed {
		ref, ok := refs[w.name]
		if !ok {
			return fmt.Errorf("reference.json has no entry for %s", w.name)
		}
		b.ref = &ref
	}
	var res result
	if *trace == 0 {
		res, err = b.endToEnd()
	} else {
		res, err = b.perLayer(*spansDir)
	}
	if err != nil {
		return err
	}
	res.Correct = res.Failed == 0
	for _, f := range b.failures {
		fmt.Println("FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// bench is one benchmark run: its repetitions and their checks.
type bench struct {
	w        *workload
	seed     int64 // the simulator's seed
	ref      *output
	deadline time.Time

	attempted int
	failures  []string
	digests   map[int]string // first output digest per shard count
}

// check counts one checked operation, failing it with a reason when why
// is non-empty.
func (b *bench) check(what, why string) {
	b.attempted++
	if why != "" {
		b.failures = append(b.failures, what+": "+why)
	}
}

// rep is one repetition: build the model, warm it up, run the measured
// window, and read what it did.
type rep struct {
	// setupS and runS are in reference seconds; cpuS and wallS are the
	// window's raw CPU and wall seconds, and calibS the calibration
	// kernel's CPU seconds just before the repetition.
	setupS, runS        float64
	cpuS, wallS, calibS float64
	events              uint64 // fired in the window
	mallocs             uint64
	allocBytes          uint64
	liveHeap            uint64
	gcFrac              float64
	out                 output
	counts              map[string]metric
	steps               stepStats // traced reps only
}

// stepStats summarises the host time of each Engine.Step in a traced
// window; the per-step samples are dropped once summarised.
type stepStats struct {
	n        int
	totalNS  int64
	p50, p99 int64
	tailOK   bool // at least minTail steps took longer than p99
}

func summariseSteps(ns []int64) stepStats {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	s := stepStats{n: len(ns)}
	for _, x := range ns {
		s.totalNS += x
	}
	s.p50, _ = quantile(ns, 0.50)
	s.p99, s.tailOK = quantile(ns, 0.99)
	return s
}

// runRep runs one repetition at a shard count, traced or not, and
// returns the model it leaves behind.
func (b *bench) runRep(shards int, traced bool) (*rep, *model, error) {
	r := &rep{calibS: calibrateCPU(calibSteps)}
	runtime.GC()
	c0 := cpuNow()
	m, err := build(b.w, b.seed, shards)
	if err != nil {
		return nil, nil, err
	}
	setupCPU := cpuSince(c0)
	m.warm()
	reg := m.registry()
	before := reg.Snapshot()
	ev0, rounds0 := m.events(), m.rounds()
	runtime.GC()
	var ms0, ms1, ms2 runtime.MemStats
	cpu0 := readCPU()
	runtime.ReadMemStats(&ms0)
	var rtx int64
	var steps []int64
	if traced {
		steps = make([]int64, 0, 1<<19)
	}
	c1, t1 := cpuNow(), time.Now()
	if traced {
		err = m.step(func(d time.Duration) { steps = append(steps, d.Nanoseconds()) })
	} else {
		rtx = m.run()
	}
	r.wallS, r.cpuS = time.Since(t1).Seconds(), cpuSince(c1)
	runtime.ReadMemStats(&ms1)
	cpu1 := readCPU()
	if err != nil {
		return nil, nil, err
	}
	if traced {
		r.steps = summariseSteps(steps)
	}
	r.events = m.events() - ev0
	r.mallocs = ms1.Mallocs - ms0.Mallocs
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	r.gcFrac = cpu1.gcFrac(cpu0)
	after := reg.Snapshot()
	runtime.GC()
	runtime.ReadMemStats(&ms2)
	r.liveHeap = ms2.HeapAlloc
	r.out = m.output()
	r.counts = windowCounts(m, before, after, m.rounds()-rounds0, rtx, r.events)
	b.checkRep(shards, r, checkInvariants(before, after, m.prefixes()))
	runtime.KeepAlive(m)
	r.setupS, r.runS = scaled(setupCPU, r.calibS), scaled(r.cpuS, r.calibS)
	return r, m, nil
}

// checkRep checks a repetition's outputs: the invariants that hold on
// every seed, the committed reference at the reference seed, and that
// every repetition at one shard count produced the same output.
func (b *bench) checkRep(shards int, r *rep, invariant string) {
	what := b.w.name
	if b.w.cluster != nil {
		what = fmt.Sprintf("%s on %d shards", b.w.name, shards)
	}
	why := invariant
	if why == "" && b.ref != nil && shards == b.w.shards && r.out != *b.ref {
		why = fmt.Sprintf("output %+v differs from reference %+v", r.out, *b.ref)
	}
	if b.digests == nil {
		b.digests = make(map[int]string)
	}
	if d, ok := b.digests[shards]; !ok {
		b.digests[shards] = r.out.Digest
	} else if why == "" && d != r.out.Digest {
		why = fmt.Sprintf("digest %s differs from this run's first %s", r.out.Digest, d)
	}
	b.check(what, why)
}

// checkShards checks that the unsharded cluster fired exactly as many
// events as the sharded one.
func (b *bench) checkShards(sharded, single *rep) {
	why := ""
	if sharded.out.Events != single.out.Events {
		why = fmt.Sprintf("%d events on %d shards, %d on one", sharded.out.Events, b.w.shards, single.out.Events)
	}
	b.check(b.w.name+" shard event totals", why)
}

// repeat runs repetitions until the deadline, at least minReps, calling
// each in turn.
func (b *bench) repeat(each ...func() error) error {
	for i := 0; i < minReps || time.Now().Before(b.deadline); i++ {
		for _, f := range each {
			if err := f(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (b *bench) endToEnd() (result, error) {
	var reps []*rep
	err := b.repeat(func() error {
		r, _, err := b.runRep(b.w.shards, false)
		if err == nil {
			reps = append(reps, r)
		}
		return err
	})
	if err != nil {
		return result{}, err
	}
	if b.w.cluster != nil {
		single, _, err := b.runRep(1, false)
		if err != nil {
			return result{}, err
		}
		b.checkShards(reps[0], single)
	}
	med := func(f func(r *rep) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	fmt.Printf("%s: %d repetitions, %d window events each\n", b.w.name, len(reps), reps[0].events)
	return result{
		Attempted: b.attempted,
		Failed:    len(b.failures),
		Metrics: map[string]metric{
			"run_s":            {med(func(r *rep) float64 { return r.runS }), "s"},
			"events_per_s":     {med(func(r *rep) float64 { return float64(r.events) / r.runS }), "1/s"},
			"allocs_per_event": {med(func(r *rep) float64 { return float64(r.mallocs) / float64(r.events) }), "allocs/event"},
			"bytes_per_event":  {med(func(r *rep) float64 { return float64(r.allocBytes) / float64(r.events) }), "B/event"},
			"live_heap_mb":     {med(func(r *rep) float64 { return float64(r.liveHeap) / (1 << 20) }), "MB"},
			"setup_s":          {med(func(r *rep) float64 { return r.setupS }), "s"},
		},
	}, nil
}

func (b *bench) perLayer(spansDir string) (result, error) {
	// The traced configuration is the workload's own on one engine; a
	// sharded cluster cannot be stepped through public functions, so its
	// traced run is the same cluster unsharded.
	tracedShards := b.w.shards
	if b.w.cluster != nil {
		tracedShards = 1
	}
	var (
		untraced, shadow, traced []*rep
		last                     *model
	)
	cycle := []func() error{func() error {
		last = nil // so that the calibration kernels see no model
		r, _, err := b.runRep(b.w.shards, false)
		if err == nil {
			untraced = append(untraced, r)
		}
		return err
	}}
	if tracedShards != b.w.shards {
		cycle = append(cycle, func() error {
			r, _, err := b.runRep(tracedShards, false)
			if err == nil {
				shadow = append(shadow, r)
			}
			return err
		})
	}
	cycle = append(cycle, func() error {
		r, m, err := b.runRep(tracedShards, true)
		if err == nil {
			traced, last = append(traced, r), m
		}
		return err
	})
	if err := b.repeat(cycle...); err != nil {
		return result{}, err
	}
	baseline := untraced
	if shadow != nil {
		baseline = shadow
		b.checkShards(untraced[0], shadow[0])
	}
	med := func(rs []*rep, f func(r *rep) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	runS := func(rs []*rep) float64 { return med(rs, func(r *rep) float64 { return r.runS }) }
	// The traced run is an observer: stepping the engine with timers
	// must produce exactly what the untraced Run entry point produced.
	for _, r := range traced {
		why := ""
		if r.out.Digest != baseline[0].out.Digest {
			why = fmt.Sprintf("traced digest %s, untraced %s", r.out.Digest, baseline[0].out.Digest)
		}
		b.check(b.w.name+" traced run matches untraced", why)
	}

	probes, spans, err := probeAll(last, untraced[len(untraced)-1].counts["iommu.iotlb_hit_frac"].Value)
	if err != nil {
		return result{}, err
	}
	var p50s, p99s []float64
	for _, r := range traced {
		if !r.steps.tailOK {
			return result{}, fmt.Errorf("%d steps leave fewer than %d beyond p99", r.steps.n, minTail)
		}
		p50s, p99s = append(p50s, float64(r.steps.p50)), append(p99s, float64(r.steps.p99))
		spans = append(spans, span{Op: "sim.step", Calls: r.steps.n, NS: r.steps.totalNS})
	}
	if err := writeSpans(spansDir, b.w.name, b.seed-1, spans); err != nil {
		return result{}, err
	}

	u := untraced[len(untraced)-1]
	ms := make(map[string]metric)
	for n, v := range u.counts {
		ms[n] = v
	}
	for op, pr := range probes {
		ms[op+"_ns"] = metric{pr.ns, "ns"}
		ms[op+"_allocs"] = metric{pr.allocs, "allocs/call"}
	}
	ms["sim.step_ns_p50"] = metric{median(p50s), "ns"}
	ms["sim.step_ns_p99"] = metric{median(p99s), "ns"}
	// The probes time calls in raw host nanoseconds, so the shares divide
	// by the window's raw CPU time.
	cpuS := med(untraced, func(r *rep) float64 { return r.cpuS })
	sh, unexplained := shares(layerCosts(u.counts, probes), cpuS)
	for layer, s := range sh {
		ms[layer+".share"] = metric{s, "ratio"}
	}
	ms["unexplained_frac"] = metric{unexplained, "ratio"}
	gc := make([]float64, len(untraced))
	for i, r := range untraced {
		gc[i] = r.gcFrac
	}
	ms["runtime.gc_cpu_frac"] = metric{median(gc), "ratio"}
	ms["trace_overhead_frac"] = metric{runS(traced)/runS(baseline) - 1, "ratio"}
	ms["host.run_cpu_s"] = metric{cpuS, "s"}
	ms["host.run_wall_s"] = metric{med(untraced, func(r *rep) float64 { return r.wallS }), "s"}
	ms["host.calib_s"] = metric{med(untraced, func(r *rep) float64 { return r.calibS }), "s"}
	speedup := 1.0
	if b.w.cluster != nil {
		if speedup, err = b.shardSpeedup(); err != nil {
			return result{}, err
		}
	}
	ms["sim.shard_speedup"] = metric{speedup, "ratio"}
	fmt.Printf("%s: %d untraced, %d traced repetitions; %d steps per traced window\n",
		b.w.name, len(untraced), len(traced), traced[0].steps.n)
	return result{Attempted: b.attempted, Failed: len(b.failures), Metrics: ms}, nil
}

// shardSpeedup is the wall time of the cluster on one shard over its wall
// time on the workload's shard count, with a P per shard: a speed-up from
// sharding shows only in wall time. The repetitions are checked like all
// others.
func (b *bench) shardSpeedup() (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(b.w.shards))
	var one, many []float64
	for i := 0; i < minReps; i++ {
		for _, shards := range []int{b.w.shards, 1} {
			r, _, err := b.runRep(shards, false)
			if err != nil {
				return 0, err
			}
			if shards == 1 {
				one = append(one, r.wallS)
			} else {
				many = append(many, r.wallS)
			}
		}
	}
	return median(one) / median(many), nil
}

// writeSpans writes the traced run's spans, kept in memory until now.
func writeSpans(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".json"), data, 0o644)
}

// cpuSample is the runtime's cumulative CPU accounting.
type cpuSample struct{ gc, total float64 }

func readCPU() cpuSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuSample{s[0].Value.Float64(), s[1].Value.Float64()}
}

// gcFrac is the share of the CPU time available since start that the
// garbage collector used.
func (s cpuSample) gcFrac(start cpuSample) float64 {
	if d := s.total - start.total; d > 0 {
		return (s.gc - start.gc) / d
	}
	return 0
}
