package host

import (
	"fmt"

	"fastsafe/internal/cohort"
	"fastsafe/internal/core"
	"fastsafe/internal/device"
	"fastsafe/internal/packet"
	"fastsafe/internal/sim"
	"fastsafe/internal/stats"
)

// The serving-fleet workload (ROADMAP item 3): an open-loop population
// of connections driven by internal/cohort — Poisson arrivals,
// bounded-Pareto request/response sizes, and connection churn. Unlike
// the closed-loop message app (msg.go), nothing here waits for
// completions before sending more: requests arrive at the configured
// rate no matter how far behind the host falls, which is what makes
// protection cost visible as tail latency instead of lost goodput.
//
// Churn is the load-bearing part. Every connection owns a buffer of
// ConnPages mapped at birth and unmapped at death, and every response
// rides a freshly mapped short-lived Tx buffer — so the IOVA
// allocator and (un)map rates scale with churn x request rate, the
// regime that decides whether the rcache magazines absorb the storm or
// fall into the flush-to-tree overflow path.

// ServeConfig configures the serving-fleet workload on a host. Conns,
// Churn and Cohort are the externally exposed knobs (validated through
// cohort.Config); the rest shape the traffic and default to a
// production-ish profile that loads five cores to ~50% before
// protection costs.
type ServeConfig struct {
	Conns  int     // fleet population (constant; dead connections are reborn)
	Churn  float64 // per-request connection death probability, in (0, 1]
	Cohort int     // connections per aggregated cohort (1 = exact per-flow model)

	RatePerConn float64      // mean requests/s per connection (default 25000)
	ReqBytes    int          // bounded-Pareto request payload cap (default 64KB)
	RespBytes   int          // bounded-Pareto response payload cap (default 4KB)
	ConnPages   int          // per-connection buffer pages mapped at birth (default 8)
	AppCPU      sim.Duration // per-request application CPU (default 1us)
	Cores       int          // cores the connections spread over (default host Cores)
	CoreBase    int          // first core index (default 0)
}

func (c ServeConfig) withDefaults(h *Host) ServeConfig {
	if c.RatePerConn <= 0 {
		c.RatePerConn = 25000
	}
	if c.ReqBytes <= 0 {
		c.ReqBytes = 64 << 10
	}
	if c.RespBytes <= 0 {
		c.RespBytes = 4 << 10
	}
	if c.ConnPages <= 0 {
		c.ConnPages = 8
	}
	if c.AppCPU == 0 {
		c.AppCPU = 1 * sim.Microsecond
	}
	if c.Cores <= 0 {
		c.Cores = h.cfg.Cores
	}
	return c
}

// servingGCTimeout is how long an unanswered request may sit before the
// open loop abandons it (its segments were tail-dropped at the NIC; the
// generator never retries).
const servingGCTimeout = 5 * sim.Millisecond

// A serving segment on the wire is a serveSeg packet: Flow is the
// connection, Seq the request id, and flagReply marks a response.
// Segments are counted, not named: the count follows from the
// request's sizes.

// servReq tracks one in-flight request at the serving host.
type servReq struct {
	arr      cohort.Arrival
	start    sim.Time
	got      int  // request segments assembled
	respGot  int  // response segments delivered at the client
	answered bool // response sent; completion is inevitable (Tx never drops)
}

type servingApp struct {
	h     *Host
	cfg   ServeConfig
	fleet *cohort.Fleet

	timerSet  bool
	timerAt   sim.Time
	timer     sim.EventID
	onTimerFn func() // a.onTimer, bound once

	pending  map[int64]*servReq
	freeReqs []*servReq        // completed or expired requests, for reuse
	gcq      sim.FIFO[int64]   // request ids in arrival order (FIFO expiry scan)
	connMaps []*core.TxMapping // per-connection buffer, remapped at rebirth
	latency  stats.Histogram

	completed      int64
	completedBytes int64 // request+response payload of completed requests
	expired        int64 // requests abandoned after drops
}

// InstallServing attaches the serving-fleet workload. Called by New
// when Config.Serve is set; call before Start.
func (h *Host) InstallServing(cfg ServeConfig) (*servingApp, error) {
	cfg = cfg.withDefaults(h)
	gap := sim.Duration(1e9 / cfg.RatePerConn)
	fleet, err := cohort.New(cohort.Config{
		Conns:   cfg.Conns,
		Cohort:  cfg.Cohort,
		Churn:   cfg.Churn,
		MeanGap: gap,
		ReqMax:  cfg.ReqBytes,
		RespMax: cfg.RespBytes,
		Seed:    h.cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("host: serving: %w", err)
	}
	app := &servingApp{
		h:        h,
		cfg:      cfg,
		fleet:    fleet,
		pending:  make(map[int64]*servReq),
		connMaps: make([]*core.TxMapping, cfg.Conns),
	}
	app.onTimerFn = app.onTimer
	h.serve = app
	if h.tele != nil {
		h.tele.reg.AddHistogram(h.tele.name("serve.latency_ns"), &app.latency)
		h.tele.reg.GaugeFunc(h.tele.name("serve.completed"), func() float64 { return float64(app.completed) })
		h.tele.reg.GaugeFunc(h.tele.name("serve.deaths"), func() float64 { return float64(fleet.Deaths()) })
		h.tele.reg.GaugeFunc(h.tele.name("serve.expired"), func() float64 { return float64(app.expired) })
	}
	return app, nil
}

// Latency returns the request-latency histogram (ns), measured at the
// abstract client from arrival to last response segment.
func (a *servingApp) Latency() *stats.Histogram { return &a.latency }

// Fleet exposes the generator (tests read its churn accounting).
func (a *servingApp) Fleet() *cohort.Fleet { return a.fleet }

func (a *servingApp) cpu(conn int) int { return a.cfg.CoreBase + conn%a.cfg.Cores }

// start maps every connection's buffer (in connection order) and arms
// the arrival timer.
func (a *servingApp) start() {
	for c := 0; c < a.cfg.Conns; c++ {
		a.remapConn(c)
	}
	a.armTimer()
}

// remapConn queues the (re)mapping of connection c's buffer on its
// core: a dead incarnation's buffer is unmapped and the fresh one
// mapped, paying the mode's costs there — the churn cost the figure is
// built to expose. At start there is nothing to unmap.
func (a *servingApp) remapConn(c int) {
	a.h.net.post(a.cpu(c), device.Item{Task: a, Pkt: packet.Packet{Kind: connMap, Flow: int32(c)}})
}

// armTimer keeps exactly one engine timer pending, at the fleet's
// earliest arrival.
func (a *servingApp) armTimer() {
	at, ok := a.fleet.Peek()
	if !ok {
		if a.timerSet {
			a.h.eng.Cancel(a.timer)
			a.timerSet = false
		}
		return
	}
	if a.timerSet && a.timerAt == at {
		return
	}
	if a.timerSet {
		a.h.eng.Cancel(a.timer)
	}
	a.timerSet = true
	a.timerAt = at
	a.timer = a.h.eng.At(at, a.onTimerFn)
}

// onTimer pops every arrival due now and re-arms for the next.
func (a *servingApp) onTimer() {
	a.timerSet = false
	now := a.h.eng.Now()
	for {
		arr, ok := a.fleet.Next(now)
		if !ok {
			break
		}
		a.sendRequest(arr, now)
	}
	a.armTimer()
}

// newReq takes a request record from the free list, or allocates one.
func (a *servingApp) newReq(arr cohort.Arrival, now sim.Time) *servReq {
	n := len(a.freeReqs)
	if n == 0 {
		return &servReq{arr: arr, start: now}
	}
	r := a.freeReqs[n-1]
	a.freeReqs[n-1] = nil
	a.freeReqs = a.freeReqs[:n-1]
	*r = servReq{arr: arr, start: now}
	return r
}

// sendRequest puts one request on the wire from the abstract client:
// segments arrive at the NIC like any remote traffic and may be
// tail-dropped under pressure.
func (a *servingApp) sendRequest(arr cohort.Arrival, now sim.Time) {
	a.pending[arr.ID] = a.newReq(arr, now)
	a.gcq.Push(arr.ID)
	n := segCount(arr.Req, a.h.cfg.MTU)
	cpu := a.cpu(arr.Conn)
	for i := 0; i < n; i++ {
		a.h.net.toLocal.Send(packet.Packet{Kind: serveSeg, CPU: uint16(cpu),
			Bytes: int32(segBytes(arr.Req, a.h.cfg.MTU, i)), Flow: int32(arr.Conn),
			Seq: arr.ID}, a.h.net.dev)
	}
}

// onDeliver handles a request segment DMA'd into local memory.
func (a *servingApp) onDeliver(pkt packet.Packet) {
	if pkt.Flags&flagReply != 0 {
		panic("host: response segment delivered to serving host")
	}
	cpu := a.cpu(int(pkt.Flow))
	a.h.net.post(cpu, device.Item{Task: a, Pkt: a.h.withIRQ(cpu, pkt)})
}

// Run implements device.Task: a delivered request segment's stack and
// application work, or a connection buffer remap.
func (a *servingApp) Run(it *device.Item) sim.Duration {
	if it.Pkt.Kind == connMap {
		return a.remapConnRun(int(it.Pkt.Flow))
	}
	cost := a.h.irqCost(it.Pkt) + a.h.net.stackCost()
	r, ok := a.pending[it.Pkt.Seq]
	if !ok || r.answered {
		return cost // late segment of an expired or answered request
	}
	r.got++
	if r.got == segCount(r.arr.Req, a.h.cfg.MTU) {
		cost += a.cfg.AppCPU
		a.respond(r)
	}
	return cost
}

// Done implements device.Task; nothing follows a request segment.
func (a *servingApp) Done(*device.Item) {}

// remapConnRun unmaps connection c's old buffer, if any, and maps a
// fresh one.
func (a *servingApp) remapConnRun(c int) sim.Duration {
	var cost sim.Duration
	if m := a.connMaps[c]; m != nil {
		uc, err := a.h.net.dom.UnmapTx(m)
		if err != nil {
			panic(fmt.Sprintf("host: UnmapTx(conn): %v", err))
		}
		cost += uc
	}
	tm, mc, err := a.h.net.dom.MapTx(a.cpu(c), a.cfg.ConnPages)
	if err != nil {
		panic(fmt.Sprintf("host: MapTx(conn): %v", err))
	}
	a.connMaps[c] = tm
	return cost + mc
}

// respond sends the response: each segment is mapped into a fresh
// short-lived Tx buffer (the per-request map/unmap the paper's Tx-path
// costs model) and handed to the NIC.
func (a *servingApp) respond(r *servReq) {
	r.answered = true
	n := segCount(r.arr.Resp, a.h.cfg.MTU)
	cpu := a.cpu(r.arr.Conn)
	for i := 0; i < n; i++ {
		a.h.net.post(cpu, device.Item{Task: a.h.net.prep(), Pkt: packet.Packet{Kind: serveSeg,
			CPU: uint16(cpu), Bytes: int32(segBytes(r.arr.Resp, a.h.cfg.MTU, i)),
			Flow: int32(r.arr.Conn), Seq: r.arr.ID, Flags: flagReply}})
	}
}

// clientReceive is the abstract client's side: the last response
// segment completes the request. The response's Tx buffer was already
// unmapped by the generic netDev completion path.
func (a *servingApp) clientReceive(seg packet.Packet) {
	r, ok := a.pending[seg.Seq]
	if !ok {
		return
	}
	r.respGot++
	if r.respGot < segCount(r.arr.Resp, a.h.cfg.MTU) {
		return
	}
	delete(a.pending, seg.Seq)
	now := a.h.eng.Now()
	rec, reborn := a.fleet.Complete(r.arr, now, int64(now-r.start))
	a.latency.Observe(rec)
	a.completed++
	a.completedBytes += int64(r.arr.Req + r.arr.Resp)
	if reborn {
		a.remapConn(r.arr.Conn)
	}
	a.freeReqs = append(a.freeReqs, r)
	a.armTimer()
}

// housekeeping expires unanswered requests whose segments were dropped.
// The gc queue is in arrival order, so the scan stops at the first
// entry still inside the timeout.
func (a *servingApp) housekeeping(now sim.Time) {
	changed := false
	for a.gcq.Len() > 0 {
		id := a.gcq.Peek()
		r, ok := a.pending[id]
		if !ok {
			a.gcq.Pop()
			continue
		}
		if now-r.start < servingGCTimeout || r.answered {
			break
		}
		a.gcq.Pop()
		delete(a.pending, id)
		a.expired++
		if a.fleet.Abandon(r.arr, now) {
			a.remapConn(r.arr.Conn)
		}
		a.freeReqs = append(a.freeReqs, r)
		changed = true
	}
	if changed {
		a.armTimer()
	}
}
