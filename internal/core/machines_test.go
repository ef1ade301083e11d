package core

import (
	"context"
	"testing"
)

// TestExperimentsPooledVsFresh is the engine's no-cycle-leakage guarantee:
// every experiment must render byte-identical tables whether its cells run
// on freshly booted machines or on pooled machines Reset from earlier work.
//
// The baseline runs each experiment on its own brand-new Runner (empty
// pools — every machine is a fresh boot). The probe runs the whole registry
// twice on one persistent Runner: the first sweep warms its pools, so by
// the second sweep every pool-keyed machine a cell asks for is a recycled
// one. Any state Reset failed to clear — a leftover cycle, a dirty page, a
// stale TLB entry or queued event — shows up as a table diff.
func TestExperimentsPooledVsFresh(t *testing.T) {
	ctx := context.Background()
	fresh := map[string]string{}
	for _, s := range Specs() {
		res, err := SerialRunner().RunExperiment(ctx, s.ID, nil)
		if err != nil {
			t.Fatalf("%s (fresh): %v", s.ID, err)
		}
		fresh[s.ID] = res.Text()
	}

	r := SerialRunner()
	for sweep := 1; sweep <= 2; sweep++ {
		for _, s := range Specs() {
			res, err := r.RunExperiment(ctx, s.ID, nil)
			if err != nil {
				t.Fatalf("%s (sweep %d): %v", s.ID, sweep, err)
			}
			if got := res.Text(); got != fresh[s.ID] {
				t.Errorf("%s: sweep %d on pooled machines diverged from fresh machines\nfresh:\n%s\npooled:\n%s",
					s.ID, sweep, fresh[s.ID], got)
			}
		}
	}

	// The probe must actually have exercised the pool: the serial runner
	// keeps one pool, and the second sweep's Gets should have hit it.
	if hits := poolHits(t, r); hits == 0 {
		t.Error("two sweeps never reused a pooled machine — the differential test tested nothing")
	}
}

// TestRunExperimentKeepsPoolsUnderContext: a cancellable ctx must reach
// the cells of the runner it was given, not a stand-in runner with cold
// pools — two runs on one warm serial Runner recycle its machines.
func TestRunExperimentKeepsPoolsUnderContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := SerialRunner()
	for i := 0; i < 2; i++ {
		if _, err := r.RunExperiment(ctx, "e7", Params{"syscalls": 20}); err != nil {
			t.Fatal(err)
		}
	}
	if hits := poolHits(t, r); hits == 0 {
		t.Error("the second run under a cancellable ctx never reused the runner's machines")
	}
}

// poolHits returns the pool hits of a serial runner, which keeps exactly
// one machine pool once it has run anything.
func poolHits(t *testing.T, r *Runner) uint64 {
	t.Helper()
	r.poolMu.Lock()
	defer r.poolMu.Unlock()
	if len(r.pools) != 1 {
		t.Fatalf("serial runner holds %d pools, want 1", len(r.pools))
	}
	hits, _ := r.pools[0].Stats()
	return hits
}
