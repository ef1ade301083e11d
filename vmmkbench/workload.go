package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"unsafe"

	"vmmk/internal/core"
	"vmmk/internal/scenario"
	"vmmk/internal/simrand"
)

// workload is one set of inputs a run measures.
type workload struct {
	name string
	// ids are the experiments one pass runs, at registry defaults.
	ids []string
	// cold selects the CLI path: a fresh Runner per pass, every table
	// rendered to text and JSON, then the whole scenario matrix. Otherwise
	// one long-lived Runner keeps its machine pools warm across passes and
	// each table renders to text. Every Runner is serial: on a shared
	// two-CPU host a two-worker pass waits on whichever CPU a neighbour is
	// using, which spread the cold workload's median pass time by a third
	// across runs, against a twentieth with one worker.
	cold bool
}

// The three workloads. paper is the source paper's own claims (mk IPC, the
// mkos servers, the vmm hypercall/grant/flip paths, vmmos RX); fleet is the
// post-paper scale experiments (cluster placement and churn, live
// migration with the dirty log, ballooning, SMP shootdowns), which paper
// never reaches; cli is `vmmklab -parallel 1 all` plus `vmmklab scenarios
// -parallel 1` as a fresh process runs them, so work moved into warm pools
// or retained memory shows here while paper and fleet would hide it.
var workloads = map[string]*workload{
	"paper": {name: "paper", ids: []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"}},
	"fleet": {name: "fleet", ids: []string{"e11", "e12", "e13"}},
	"cli":   {name: "cli", ids: registryIDs(), cold: true},
}

// registryIDs lists every registered experiment, as `vmmklab all` does.
func registryIDs() []string {
	var ids []string
	for _, s := range core.Specs() {
		ids = append(ids, s.ID)
	}
	return ids
}

// scenarioKey names the scenario report among a pass's outputs.
const scenarioKey = "scenarios.txt"

// digestsJSON maps every output key ("e1.txt", "e1.json", "scenarios.txt")
// to the SHA-256 of its rendering at registry defaults. Regenerate with
// `go test -run TestDigests -update` when a change means to move a table.
//
//go:embed digests.json
var digestsJSON []byte

// loadDigests decodes the committed digests.
func loadDigests() (map[string][sha256.Size]byte, error) {
	var hexes map[string]string
	if err := json.Unmarshal(digestsJSON, &hexes); err != nil {
		return nil, fmt.Errorf("decoding digests.json: %w", err)
	}
	out := make(map[string][sha256.Size]byte, len(hexes))
	for k, h := range hexes {
		var d [sha256.Size]byte
		if n, err := hex.Decode(d[:], []byte(h)); err != nil || n != len(d) {
			return nil, fmt.Errorf("digests.json: bad digest for %s", k)
		}
		out[k] = d
	}
	return out, nil
}

// bench holds one workload's state across passes.
type bench struct {
	w      *workload
	rng    *simrand.Rand
	runner *core.Runner // long-lived when warm; the latest pass's when cold
	want   map[string][sha256.Size]byte

	// Per-id keys and span names, built once so a pass does not allocate
	// them.
	txtKey, jsonKey, spanName map[string]string

	// out is the latest pass's rendered output by key.
	out map[string]string
	// rows counts the latest pass's scenario rows; rowsFailed counts the
	// rows that did not pass, over every pass.
	rows, rowsFailed int
}

func newBench(w *workload, seed uint64) (*bench, error) {
	want, err := loadDigests()
	if err != nil {
		return nil, err
	}
	b := &bench{
		w:        w,
		rng:      simrand.New(seed),
		runner:   core.SerialRunner(),
		want:     want,
		txtKey:   map[string]string{},
		jsonKey:  map[string]string{},
		spanName: map[string]string{},
		out:      map[string]string{},
	}
	for _, id := range w.ids {
		b.txtKey[id], b.jsonKey[id], b.spanName[id] = id+".txt", id+".json", "core."+id
	}
	return b, nil
}

// pass runs the workload once and renders its output into b.out. tr may be
// nil (untraced); root is the pass's span.
func (b *bench) pass(tr *tracer, root int) error {
	clear(b.out)
	order := b.rng.Perm(len(b.w.ids))
	r := b.runner
	if b.w.cold {
		r = core.SerialRunner()
		b.runner = r
	}
	for _, i := range order {
		id := b.w.ids[i]
		sp := tr.begin(root, b.spanName[id])
		res, err := r.RunExperiment(context.Background(), id, nil)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		sp = tr.begin(root, "core.render")
		b.out[b.txtKey[id]] = res.Text()
		var j []byte
		if b.w.cold {
			j, err = res.JSON()
			b.out[b.jsonKey[id]] = string(j)
		}
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: rendering JSON: %w", id, err)
		}
	}
	if !b.w.cold {
		return nil
	}
	sp := tr.begin(root, "scenario.run")
	results, err := scenario.Run(scenario.Options{Parallel: 1, IDs: scenario.ShuffledIDs(b.rng.Uint64())})
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("scenarios: %w", err)
	}
	// The report lists rows in run order; sorting restores the canonical
	// order so the digest does not depend on the shuffle.
	sort.Slice(results, func(i, j int) bool { return results[i].ID < results[j].ID })
	sp = tr.begin(root, "core.render")
	b.out[scenarioKey] = scenario.Report(results).Text()
	tr.end(sp)
	pass, _, _ := scenario.Summarize(results)
	b.rows = len(results)
	if failed := len(results) - pass; failed > 0 {
		b.rowsFailed += failed
		return fmt.Errorf("scenarios: %d of %d rows did not pass", failed, b.rows)
	}
	return nil
}

// wantKeys is how many outputs one pass of the workload renders.
func (w *workload) wantKeys() int {
	if w.cold {
		return 2*len(w.ids) + 1
	}
	return len(w.ids)
}

// verify checks a pass's outputs against the committed digests.
func verify(w *workload, want map[string][sha256.Size]byte, out map[string]string) error {
	if len(out) != w.wantKeys() {
		return fmt.Errorf("pass rendered %d outputs, want %d", len(out), w.wantKeys())
	}
	for k, text := range out {
		d, ok := want[k]
		if !ok {
			return fmt.Errorf("%s: no committed digest", k)
		}
		if sha256.Sum256(bytesOf(text)) != d {
			return fmt.Errorf("%s: output differs from its committed digest", k)
		}
	}
	return nil
}

// bytesOf views a string's bytes without copying them, so checking a pass
// allocates nothing inside the measured window. The slice must not be
// written.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }
