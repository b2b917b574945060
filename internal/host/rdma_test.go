package host

import (
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/sim"
	"fastsafe/internal/transport"
)

func rdmaClusterConfig(mode core.Mode, op transport.Op, atsEntries int) ClusterConfig {
	return ClusterConfig{
		Hosts:   2,
		Traffic: Pairs,
		Op:      op,
		Host: Config{
			Mode:       mode,
			Seed:       7,
			Audit:      true,
			ATSEntries: atsEntries,
		},
	}
}

func runRdmaCluster(t *testing.T, cfg ClusterConfig) ClusterResults {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c.Run(sim.Millisecond, 2*sim.Millisecond)
}

// TestRDMAWriteDelivers drives a one-sided WRITE through the full
// datapath: source NIC streaming from its registered window, fabric,
// direct DMA into the sink window through the sink's ATC, hardware
// ACKs, and window-chunk recycling under the protection mode.
func TestRDMAWriteDelivers(t *testing.T) {
	r := runRdmaCluster(t, rdmaClusterConfig(core.FNS, transport.Write, 1024))
	sink := r.Hosts[1]
	if sink.RxGbps <= 0 {
		t.Fatalf("no goodput at the sink: %+v", sink.RxGbps)
	}
	if r.Hosts[0].TxGbps <= 0 {
		t.Fatal("source Tx accounting not mirrored")
	}
	if v := r.Violations(); v != 0 {
		t.Fatalf("FNS one-sided flow audited %d violations", v)
	}
	// The sink NIC translated through its device cache.
	nic0 := sink.Devices[0]
	if nic0.ATSLookups <= 0 {
		t.Fatalf("sink ATC never consulted: %+v", nic0)
	}
	if nic0.ATSHitRate <= 0.5 {
		t.Fatalf("sink ATC hit rate %v, want > 0.5 for a streaming window", nic0.ATSHitRate)
	}
	// Window recycling shot the ATC down through the invalidation queue.
	if nic0.ATCInvalidations <= 0 {
		t.Fatalf("window recycling never invalidated the ATC: %+v", nic0)
	}
}

// TestRDMAReadDelivers checks the READ shape: the sink posts one work
// request and the remote NIC streams with no remote-CPU involvement.
func TestRDMAReadDelivers(t *testing.T) {
	r := runRdmaCluster(t, rdmaClusterConfig(core.Strict, transport.Read, 256))
	if r.Hosts[1].RxGbps <= 0 {
		t.Fatal("READ stream never delivered")
	}
	if v := r.Violations(); v != 0 {
		t.Fatalf("strict one-sided READ audited %d violations", v)
	}
}

// TestRDMAWithoutATCStillWorks runs one-sided flows with no device
// cache at all: every direct DMA translates at the IOMMU.
func TestRDMAWithoutATCStillWorks(t *testing.T) {
	r := runRdmaCluster(t, rdmaClusterConfig(core.FNS, transport.Write, 0))
	if r.Hosts[1].RxGbps <= 0 {
		t.Fatal("no goodput without an ATC")
	}
	if lk := r.Hosts[1].Devices[0].ATSLookups; lk != 0 {
		t.Fatalf("ATSLookups = %d with no ATC attached", lk)
	}
	if v := r.Violations(); v != 0 {
		t.Fatalf("audited %d violations", v)
	}
}

// TestRDMAStrawmanServesStaleATS is the safety half of the paper's
// argument: defer-noshootdown recycles window chunks without any ATC
// invalidate, so the device TLB keeps serving translations the host
// revoked — the auditor must see StaleATS, and the strict modes must
// not.
func TestRDMAStrawmanServesStaleATS(t *testing.T) {
	straw := runRdmaCluster(t, rdmaClusterConfig(core.DeferNoShootdown, transport.Write, 1024))
	var stale int64
	for _, h := range straw.Hosts {
		if h.Safety != nil {
			stale += h.Safety.StaleATS
		}
	}
	if stale == 0 {
		t.Fatal("defer-noshootdown never served a stale ATC entry")
	}
	for _, mode := range []core.Mode{core.Strict, core.FNS} {
		r := runRdmaCluster(t, rdmaClusterConfig(mode, transport.Write, 1024))
		for i, h := range r.Hosts {
			if h.Safety == nil {
				t.Fatalf("%v host %d: auditor missing", mode, i)
			}
			if h.Safety.StaleATS != 0 || h.Safety.Violations() != 0 {
				t.Fatalf("%v host %d: %s", mode, i, h.Safety)
			}
		}
	}
}

// A nic end skips two stack costs. One-sided data lands in application
// memory without the stack's copy in and out, so the sink's memory
// traffic is the DMA alone; two-sided data pays the DMA plus both
// copies. And a one-sided sender's retransmission timer is floored at
// device scale instead of the stack's 5ms.
func TestOneSidedEndCosts(t *testing.T) {
	for _, c := range []struct {
		op       transport.Op
		min, max float64 // sink memory bytes per Rx DMA byte
		rto      sim.Duration
	}{
		{transport.Write, 0.9, 1.1, sim.Millisecond},
		{transport.SendRecv, 2.9, 3.1, 5 * sim.Millisecond},
	} {
		cl, err := NewCluster(rdmaClusterConfig(core.FNS, c.op, 64))
		if err != nil {
			t.Fatal(err)
		}
		if rto := cl.Hosts()[0].net.flows[0].snd.RTO(); rto != c.rto {
			t.Errorf("%v: sender RTO floor = %v, want %v", c.op, rto, c.rto)
		}
		cl.Run(sim.Millisecond, sim.Millisecond)
		sink := cl.Hosts()[1]
		bus, _ := cl.Registry().Value("host1.mem.bytes")
		ratio := bus / float64(sink.NIC().Stats().RxBytes)
		if ratio < c.min || ratio > c.max {
			t.Errorf("%v: sink memory bytes per Rx DMA byte = %.3f, want in [%.1f, %.1f]", c.op, ratio, c.min, c.max)
		}
	}
}
