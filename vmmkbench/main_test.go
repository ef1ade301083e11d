package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// update rewrites digests.json from the current program's output:
// go test -run TestDigests -update
var update = flag.Bool("update", false, "rewrite digests.json")

// onePass runs a single pass of the named workload and returns its outputs.
func onePass(t *testing.T, name string, seed uint64) map[string]string {
	t.Helper()
	b, err := newBench(workloads[name], seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.pass(nil, -1); err != nil {
		t.Fatalf("%s pass: %v", name, err)
	}
	return b.out
}

// TestDigests checks every workload's pass against the committed digests
// under two seeds, which permute experiment and scenario order differently.
func TestDigests(t *testing.T) {
	if *update {
		hexes := map[string]string{}
		for k, text := range onePass(t, "cli", 1) {
			d := sha256.Sum256([]byte(text))
			hexes[k] = hex.EncodeToString(d[:])
		}
		data, err := json.MarshalIndent(hexes, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("digests.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skip("digests.json rewritten; rebuild and rerun to check it")
	}
	want, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		for _, seed := range []uint64{1, 0xBEEF} {
			if err := verify(workloads[name], want, onePass(t, name, seed)); err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}

// TestFlippedByteCaught shows the output check catches a single changed
// byte in any one output, and a missing output.
func TestFlippedByteCaught(t *testing.T) {
	want, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	w := workloads["cli"]
	out := onePass(t, "cli", 3)
	if err := verify(w, want, out); err != nil {
		t.Fatalf("unmodified pass: %v", err)
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		orig := out[k]
		flipped := []byte(orig)
		flipped[len(flipped)/2] ^= 1
		out[k] = string(flipped)
		if err := verify(w, want, out); err == nil || !strings.Contains(err.Error(), k) {
			t.Errorf("flipped byte in %s: verify returned %v", k, err)
		}
		out[k] = orig
	}
	delete(out, keys[0])
	if err := verify(w, want, out); err == nil {
		t.Error("a missing output passed the check")
	}
}

// TestScenarioReportMatchesCLIGolden ties the benchmark's scenario output to
// the CLI's committed golden, which renders the same report after a header.
func TestScenarioReportMatchesCLIGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "cmd", "vmmklab", "testdata", "scenarios.txt.golden"))
	if err != nil {
		t.Skipf("CLI golden not available: %v", err)
	}
	got := onePass(t, "cli", 5)[scenarioKey]
	_, body, _ := strings.Cut(string(golden), "==\n")
	if got != body {
		t.Errorf("scenario report differs from the CLI golden\n--- got ---\n%s\n--- golden ---\n%s", got, body)
	}
}

// TestProbesSelfCheck runs every probe briefly under two seeds; each must
// pass its own checks and report the same exact counts.
func TestProbesSelfCheck(t *testing.T) {
	for _, p := range probes {
		var counts [2]map[string]float64
		for i, seed := range []uint64{1, 0xBEEF} {
			got, err := p.run(seed, 200)
			if err != nil {
				t.Fatalf("probe %s seed %d: %v", p.name, seed, err)
			}
			counts[i] = map[string]float64{}
			for k, m := range got {
				if m.Unit == "count" && !strings.HasSuffix(k, "_allocs") {
					counts[i][k] = m.Value
				}
			}
		}
		for k, v := range counts[0] {
			if counts[1][k] != v {
				t.Errorf("probe %s: %s is %v under one seed and %v under another", p.name, k, v, counts[1][k])
			}
		}
	}
}

// TestMain lets setupSamples start this test binary as a set-up child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-setup-child" {
		main()
	}
	os.Exit(m.Run())
}

// TestRunsReportEveryBenchmarkMetric makes a short run of each kind on each
// workload and checks its metric names and units against BENCHMARK.json,
// and that no pass, set-up run or probe failed.
func TestRunsReportEveryBenchmarkMetric(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("BENCHMARK.json not available: %v", err)
	}
	type metricSpec struct{ Name, Unit string }
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(run string, res *result, want []metricSpec) {
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed", run, res.Failed, res.Attempted)
		}
		listed := map[string]bool{}
		for _, m := range want {
			listed[m.Name] = true
			if got, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s: %s not reported", run, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s: %s reported in %s, BENCHMARK.json says %s", run, m.Name, got.Unit, m.Unit)
			}
		}
		for k := range res.Metrics {
			if !listed[k] {
				t.Errorf("%s: reports %s, which BENCHMARK.json does not list", run, k)
			}
		}
	}
	for _, name := range workloadNames() {
		res, err := runEndToEnd(workloads[name], 7, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		check(name+" --trace 0", res, spec.EndToEnd)
		if res, err = runTraced(workloads[name], 7, 0.05, t.TempDir(), 200); err != nil {
			t.Fatal(err)
		}
		check(name+" --trace 1", res, spec.PerLayer)
	}
}
