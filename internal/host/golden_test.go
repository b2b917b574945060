package host

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fastsafe/internal/core"
	"fastsafe/internal/sim"
	"fastsafe/internal/transport"
)

// goldenRun renders one configuration the way cmd/fssim prints it: the
// Results summary line plus the per-core utilisation row. The golden
// files lock these bytes across refactors of the construction path.
func goldenRun(t *testing.T, cfg Config, storageGBps float64) string {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if storageGBps > 0 {
		h.InstallStorage(StorageConfig{ReadGBps: storageGBps})
	}
	r := h.Run(2*sim.Millisecond, 6*sim.Millisecond)
	var b strings.Builder
	fmt.Fprintln(&b, r)
	fmt.Fprintf(&b, "per-core CPU utilisation: ")
	for _, u := range r.CPUUtil {
		fmt.Fprintf(&b, "%3.0f%% ", u*100)
	}
	fmt.Fprintln(&b)
	return b.String()
}

// TestGoldenHostRunsByteIdentical locks the fssim-style output of the
// seed configurations: default strict and FNS, a ring sweep point, and
// the storage co-tenant path. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/host -run Golden.
func TestGoldenHostRunsByteIdentical(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		storage float64
	}{
		{"strict_default", Config{Mode: core.Strict}, 0},
		{"fns_default", Config{Mode: core.FNS}, 0},
		{"strict_ring1024", Config{Mode: core.Strict, RingPackets: 1024}, 0},
		{"strict_storage8", Config{Mode: core.Strict}, 8},
		{"fns_storage8", Config{Mode: core.FNS}, 8},
		{"deferred_seed3", Config{Mode: core.Deferred, Seed: 3}, 0},
		// Rx and Tx flows side by side, one core each: the workload
		// package's Bidirectional shape.
		{"bidir", Config{Mode: core.Strict, Cores: 4, RxFlows: 4, TxFlows: 4}, 0},
	}
	for _, c := range cases {
		checkGolden(t, c.name, goldenRun(t, c.cfg, c.storage))
	}
}

// checkGolden compares got with testdata/golden/<name>.txt, or rewrites
// the file when UPDATE_GOLDEN is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (regenerate with UPDATE_GOLDEN=1)", name, err)
	}
	if got != string(want) {
		t.Errorf("%s diverged from golden file:\ngot:\n%s\nwant:\n%s", name, got, string(want))
	}
}

// flowProbe matches the per-flow congestion probes of every flow shape:
// flow<i>, txflow<i>, peerflow<i> and rdmaflow<i>.
var flowProbe = regexp.MustCompile(`\.(tx|peer|rdma)?flow[0-9]+\.`)

// goldenCluster renders one cluster run: the ClusterResults summary (one
// line per host) and the registry dump of every per-flow probe, which
// locks the flow names and their end-of-run congestion state.
func goldenCluster(t *testing.T, cfg ClusterConfig) string {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := c.Run(sim.Millisecond/3, sim.Millisecond/3)
	var b strings.Builder
	fmt.Fprintln(&b, r)
	for _, line := range strings.Split(c.Registry().String(), "\n") {
		if flowProbe.MatchString(line) {
			fmt.Fprintln(&b, line)
		}
	}
	return b.String()
}

// TestGoldenClusterRunsByteIdentical locks the cluster flow shapes the
// single-host goldens do not reach: two-sided all-to-all, one-sided READ
// through a device TLB, and sharded incast. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/host -run Golden.
func TestGoldenClusterRunsByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		cfg  ClusterConfig
	}{
		{"cluster_alltoall", ClusterConfig{Hosts: 4, Traffic: AllToAll,
			Host: Config{Mode: core.Strict}}},
		{"cluster_pairs_read", ClusterConfig{Hosts: 4, Traffic: Pairs, Op: transport.Read,
			Host: Config{Mode: core.FNS, ATSEntries: 64}}},
		{"cluster_incast_sharded", ClusterConfig{Hosts: 4, Traffic: Incast, Shards: 2,
			Host: Config{Mode: core.FNS}}},
	}
	for _, c := range cases {
		checkGolden(t, c.name, goldenCluster(t, c.cfg))
	}
}
