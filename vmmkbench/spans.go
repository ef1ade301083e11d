package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"vmmk/internal/core"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	name       string
	parent     int // index of the enclosing span, -1 for a root
	start, end time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes go through the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = time.Since(t.epoch)
}

// selfTimes returns each span's duration minus the time its direct
// children cover. Children of one span run one after another, so their
// durations add up without overlap.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// spanMetrics turns the traced passes into per-layer metrics: for each
// span name, the median over traced passes of that name's self time within
// the pass. Every registered experiment gets a metric; one the workload
// never runs reads 0.
func spanMetrics(b *bench, t *tracer) map[string]metric {
	self := t.selfTimes()
	perPass := map[string][]float64{}
	names := []string{"core.render", "scenario.run"}
	for _, s := range core.Specs() {
		names = append(names, "core."+s.ID)
	}
	passIdx := map[int]int{} // root span index -> position in perPass slices
	for i, s := range t.spans {
		if s.parent == -1 && s.name == "pass" {
			passIdx[i] = len(passIdx)
		}
	}
	for _, n := range names {
		perPass[n] = make([]float64, len(passIdx))
	}
	for i, s := range t.spans {
		if p, ok := passIdx[s.parent]; ok {
			if xs, known := perPass[s.name]; known {
				xs[p] += ms(self[i])
			}
		}
	}
	out := map[string]metric{}
	for _, n := range names {
		out[n+"_ms"] = metric{quantile(perPass[n], 0.5), "ms"}
	}
	out["scenario.rows"] = metric{float64(b.rows), "count"}
	out["scenario.rows_failed"] = metric{float64(b.rowsFailed), "count"}
	return out
}

// selfTimeSummary renders total self time by span name and by layer (the
// name's first dot-separated element), largest first.
func (t *tracer) selfTimeSummary() string {
	self := t.selfTimes()
	type agg struct {
		n     int
		total time.Duration
	}
	byName, byLayer := map[string]*agg{}, map[string]*agg{}
	add := func(m map[string]*agg, k string, d time.Duration) {
		a := m[k]
		if a == nil {
			a = &agg{}
			m[k] = a
		}
		a.n++
		a.total += d
	}
	for i, s := range t.spans {
		add(byName, s.name, self[i])
		layer := s.name
		if s.name == "pass" {
			layer = "bench"
		} else if strings.HasPrefix(layer, "probe.") {
			layer = strings.TrimPrefix(layer, "probe.")
		}
		layer, _, _ = strings.Cut(layer, ".")
		add(byLayer, layer, self[i])
	}
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 0, 0, 2, ' ', tabwriter.AlignRight)
	for _, part := range []struct {
		title string
		m     map[string]*agg
	}{{"layer", byLayer}, {"span", byName}} {
		keys := make([]string, 0, len(part.m))
		for k := range part.m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if a, b := part.m[keys[i]].total, part.m[keys[j]].total; a != b {
				return a > b
			}
			return keys[i] < keys[j]
		})
		fmt.Fprintf(tw, "%s\tspans\tself ms\tself ms/span\t\n", part.title)
		for _, k := range keys {
			a := part.m[k]
			fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.4f\t\n", k, a.n, ms(a.total), ms(a.total)/float64(a.n))
		}
		fmt.Fprintln(tw, "\t\t\t\t")
	}
	tw.Flush()
	return sb.String()
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which https://perfetto.dev and chrome://tracing open.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`  // start, microseconds
	Dur  float64 `json:"dur"` // microseconds
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

// writeChrome writes every span as Chrome trace-event JSON.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	defer f.Close()
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		cat, _, _ := strings.Cut(s.name, ".")
		events[i] = chromeEvent{
			Name: s.name, Cat: cat, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
		}
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"}); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
