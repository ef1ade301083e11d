package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vmmk/internal/simrand"
)

const (
	// setupRuns is how many fresh processes one run times for setup_s;
	// the median of several keeps one slow process start from moving it.
	// Half run before the timed window and half after, so the samples
	// span the same stretch of host time as the passes.
	setupRuns = 12
	// subWindowTime is the target length of one sub-window. The timing
	// metrics are medians over a run's sub-windows, so a burst of host
	// contention covering less than half of them does not move them.
	subWindowTime = 5 * time.Second
	// Warm-up before the timed window: at least warmupPasses passes and
	// at least warmupTime, so pools, caches and the heap reach their
	// steady size first.
	warmupPasses = 3
	warmupTime   = time.Second
)

// window is what one timed window measured.
type window struct {
	passMs   []float64 // wall time of each untraced pass
	tracedMs []float64 // wall time of each traced pass (traced runs only)
	subs     []subWindow
	mallocs  uint64 // heap objects allocated over the window
	// allocBytes is the heap bytes allocated over the window.
	allocBytes uint64
	// retained is HeapAlloc after forced collections at the end, with the
	// workload's runner and pools still reachable.
	retained uint64
}

// subWindow is one equal slice of the timed window.
type subWindow struct {
	passMs []float64 // wall time of each untraced pass that started in it
	cpuMs  float64   // process user+system CPU over those passes alone
}

// passes returns how many passes the window timed.
func (w window) passes() int { return len(w.passMs) + len(w.tracedMs) }

// subMedian returns the median over sub-windows of stat applied to each.
func (w window) subMedian(stat func(subWindow) float64) float64 {
	xs := make([]float64, 0, len(w.subs))
	for _, s := range w.subs {
		if len(s.passMs) > 0 {
			xs = append(xs, stat(s))
		}
	}
	return quantile(xs, 0.5)
}

// timedWindow warms the workload up, forces a collection, then runs passes
// for the given number of seconds, split into equal sub-windows, timing
// each pass and checking its output outside the timed interval. With a
// tracer, a seeded coin picks which passes are traced: strict alternation
// lined up with collection cycles that recur every two passes and biased
// the traced-minus-untraced difference.
func (b *bench) timedWindow(seconds float64, tr *tracer, t *tally) window {
	warm := time.Now()
	for i := 0; i < warmupPasses || time.Since(warm) < warmupTime; i++ {
		t.record(b.checkedPass(nil, -1, nil))
	}

	total := time.Duration(seconds * float64(time.Second))
	w := window{subs: make([]subWindow, max(1, int((total+subWindowTime/2)/subWindowTime)))}
	subLen := total / time.Duration(len(w.subs))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var coin *simrand.Rand
	if tr != nil {
		coin = b.rng.Fork(0x7ACE)
	}
	start := time.Now()
	for k := 0; k < len(w.subs); {
		var pt passTime
		if tr != nil && coin.Bool(0.5) {
			root := tr.begin(-1, "pass")
			t.record(b.checkedPass(tr, root, &pt))
			tr.end(root)
			w.tracedMs = append(w.tracedMs, ms(pt.wall))
		} else {
			t.record(b.checkedPass(nil, -1, &pt))
			w.passMs = append(w.passMs, ms(pt.wall))
			w.subs[k].passMs = append(w.subs[k].passMs, ms(pt.wall))
			w.subs[k].cpuMs += ms(pt.cpu)
		}
		if time.Since(start) >= subLen*time.Duration(k+1) {
			k++
		}
	}
	runtime.ReadMemStats(&m1)
	w.mallocs = m1.Mallocs - m0.Mallocs
	w.allocBytes = m1.TotalAlloc - m0.TotalAlloc

	runtime.GC()
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	w.retained = m2.HeapAlloc
	runtime.KeepAlive(b)
	return w
}

// passTime is one pass's host wall time and process CPU time.
type passTime struct {
	wall, cpu time.Duration
}

// checkedPass runs one pass, storing its wall and CPU time in *pt when pt
// is non-nil, then verifies the output against the committed digests. The
// check falls outside both times.
func (b *bench) checkedPass(tr *tracer, root int, pt *passTime) error {
	c0 := cpuTime()
	t0 := time.Now()
	err := b.pass(tr, root)
	if pt != nil {
		pt.wall = time.Since(t0)
		pt.cpu = cpuTime() - c0
	}
	if err != nil {
		return fmt.Errorf("%s pass: %w", b.w.name, err)
	}
	if err := verify(b.w, b.want, b.out); err != nil {
		return fmt.Errorf("%s pass: %w", b.w.name, err)
	}
	return nil
}

// setupSamples starts n fresh copies of this program, each running one
// pass of the workload, and appends each one's wall time from process start
// to the end of its first pass, in seconds, to out. That is what a fresh `vmmklab`
// invocation pays before its first table: process start, package
// initialisation, Runner construction and cold pools.
func setupSamples(out []float64, w *workload, seed uint64, n int, t *tally) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own executable: %w", err)
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-setup-child", "-workload", w.name,
			"-seed", strconv.FormatUint(seed+uint64(i)+1, 10))
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		start := time.Now()
		err := cmd.Run() // a failed output check exits 1 after printing the time
		end, perr := strconv.ParseInt(strings.TrimSpace(stdout.String()), 10, 64)
		if perr == nil {
			out = append(out, float64(end-start.UnixNano())/1e9)
		} else if err == nil {
			err = fmt.Errorf("set-up run printed %q: %w", stdout.String(), perr)
		}
		t.record(err)
	}
	return out, nil
}

// runSetupChild is the child side of setupSamples: one pass, then the
// wall-clock instant the pass ended, in Unix nanoseconds, then the output
// check. It exits 1 when the pass or the check failed.
func runSetupChild(w *workload, seed uint64) int {
	b, err := newBench(w, seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vmmkbench: %v\n", err)
		return 1
	}
	err = b.pass(nil, -1)
	fmt.Println(time.Now().UnixNano())
	if err == nil {
		err = verify(w, b.want, b.out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "vmmkbench: FAIL: %s set-up pass: %v\n", w.name, err)
		return 1
	}
	return 0
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage(RUSAGE_SELF): %v", err)) // cannot fail with valid arguments
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
