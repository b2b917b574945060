package experiments

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fastsafe/internal/race"
	"fastsafe/internal/sim"
)

// goldenOpts are the fixed windows the golden files were generated with.
// They must never change: the files under testdata/golden lock the exact
// table bytes the seed configurations produce, so any refactor of the
// host/device construction path that perturbs event ordering — and hence
// results — fails this test.
func goldenOpts() Options {
	return Options{
		Warmup:     1 * sim.Millisecond,
		Measure:    3 * sim.Millisecond,
		RPCMeasure: 9 * sim.Millisecond,
		Parallel:   4,
	}
}

// goldenRuns memoises each golden figure's table at goldenOpts, so the
// golden test and TestIDsAllResolvable share one run per figure.
var goldenRuns struct {
	sync.Mutex
	tabs map[string]Table
}

// goldenTable returns golden figure id rendered at goldenOpts, running it
// at most once per test binary.
func goldenTable(t *testing.T, id string) Table {
	t.Helper()
	goldenRuns.Lock()
	defer goldenRuns.Unlock()
	if tab, ok := goldenRuns.tabs[id]; ok {
		return tab
	}
	tab, err := ByID(id, goldenOpts())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if goldenRuns.tabs == nil {
		goldenRuns.tabs = map[string]Table{}
	}
	goldenRuns.tabs[id] = tab
	return tab
}

// TestGoldenFiguresByteIdentical regenerates every registered figure and
// requires byte-for-byte identity with its committed file. Together the
// files lock every construction path the figures reach: the single-host
// sweeps and locality traces, the RPC and application tails, the
// co-tenant device and antagonist tables, the fault, cluster, rdma,
// capability, serving and adaptive campaigns, and the sharded engine at
// 64-256 hosts (its rendered rows are deterministic; wall-clock lives in
// the JSON-only Notes). Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/experiments -run Golden — but only
// when a results-changing modification is intentional.
func TestGoldenFiguresByteIdentical(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, id := range IDs() {
		if id == "clusterscale" && race.Enabled {
			// The figure times sequential 64-256-host cells; under the
			// race detector that is ~10x slower and the wall-clock notes
			// are meaningless. The sharded engine's race coverage comes
			// from the host equivalence tests instead.
			continue
		}
		got := goldenTable(t, id).String()
		path := filepath.Join("testdata", "golden", id+".txt")
		if update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with UPDATE_GOLDEN=1)", id, err)
		}
		if got != string(want) {
			t.Errorf("%s diverged from golden file %s:\ngot:\n%s\nwant:\n%s",
				id, path, got, string(want))
		}
	}
}
