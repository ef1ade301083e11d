package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"vmmk/internal/cluster"
	"vmmk/internal/core"
	"vmmk/internal/fslite"
	"vmmk/internal/hw"
	"vmmk/internal/mk"
	"vmmk/internal/scenario"
	"vmmk/internal/simrand"
	"vmmk/internal/trace"
	"vmmk/internal/vmm"
)

// A probe is a fixed loop over one layer's hot public primitive. Each one
// checks what its loop produced — packets delivered, replies echoed, pages
// moved, migrations made — so it cannot get faster by doing less. div
// divides the iteration counts (1 in a benchmark run; tests use more).
type probe struct {
	name string
	run  func(seed uint64, div int) (map[string]metric, error)
}

// probes run in this order after the traced passes.
var probes = []probe{
	{"trace", probeTrace},
	{"hw.pool", probePool},
	{"hw.machine_new", probeMachineNew},
	{"hw.mem_reset", probeMemReset},
	{"hw.mem_alloc_free", probeMemAllocFree},
	{"hw.pt", probePageTable},
	{"mk.ipc", probeIPC},
	{"mkos.rx", rxProbe("mkos", func() (rxStack, error) { return core.NewMKStack(core.Config{}) })},
	{"vmmos.rx", rxProbe("vmmos", func() (rxStack, error) { return core.NewXenStack(core.Config{}) })},
	{"vmm.hypercall", probeHypercall},
	{"vmm.flip", probeFlip},
	{"vmm.migrate", probeMigrate},
	{"cluster.churn", probeChurn},
	{"fslite", probeFS},
}

// Probe inputs follow the workloads' registry defaults.
const (
	hostFrames   = 192 // E13's host size
	migFrames    = 96  // E11's guest size
	migHeadroom  = 256 // E11's per-machine headroom over the guest
	migDirty     = 8   // E11's medium dirty rate (peak 48 / 6)
	migRounds    = 4   // E11's round budget
	migCutoff    = 2   // E11's writable-working-set cutoff
	packetSize   = 512 // mean packet size; each packet varies by up to ±64
	churnEvents  = 96  // E13's larger churn
	churnHosts   = 4   // a mid-sized E13 fleet
	churnMinPage = 12  // E13's guest sizes
	churnMaxPage = 44
)

// migPagesMoved is what every probe migration must move: the whole guest
// in round one, then the migDirty distinct pages written during each later
// round until the dirty set stops shrinking. A change to the pre-copy
// algorithm that moves a different count fails the probe rather than
// reading as a speed-up.
const migPagesMoved = 112

// churnRuns fixes the churn schedules the cluster probe drives, with the
// live-migration count each one must produce. The workload seed only
// permutes their order.
var churnRuns = []struct {
	seed       uint64
	policy     cluster.Policy
	migrations int
}{
	{0xC1, cluster.BinPack, 15}, {0xC2, cluster.BinPack, 4},
	{0xC3, cluster.Spread, 9}, {0xC4, cluster.Spread, 10},
}

// iters scales a base iteration count down by div, keeping it even and at
// least 2.
func iters(base, div int) int {
	n := base / div
	if n < 2 {
		n = 2
	}
	return n &^ 1
}

// stopwatch accumulates time and allocations over the measured calls of a
// loop whose other steps (set-up, checks) must not count.
type stopwatch struct {
	d      time.Duration
	allocs uint64
	m      runtime.MemStats
	t0     time.Time
}

func (s *stopwatch) start() {
	runtime.ReadMemStats(&s.m)
	s.t0 = time.Now()
}

func (s *stopwatch) stop() {
	s.d += time.Since(s.t0)
	before := s.m.Mallocs
	runtime.ReadMemStats(&s.m)
	s.allocs += s.m.Mallocs - before
}

// measure times body, which performs ops operations, after a forced
// collection. It returns nanoseconds and heap allocations per operation.
func measure(ops int, body func()) (nsPerOp, allocsPerOp float64) {
	runtime.GC()
	var sw stopwatch
	sw.start()
	body()
	sw.stop()
	return float64(sw.d.Nanoseconds()) / float64(ops), float64(sw.allocs) / float64(ops)
}

func probeTrace(_ uint64, div int) (map[string]metric, error) {
	r := trace.NewRecorder(0)
	c := r.Intern("bench.probe")
	n := iters(4_000_000, div)
	chargeNs, _ := measure(n, func() {
		for i := 0; i < n; i++ {
			r.Charge(uint64(i), trace.KHypercall, c, 7)
		}
	})
	n64 := iters(2_000_000, div)
	chargeN64Ns, _ := measure(n64, func() {
		for i := 0; i < n64; i++ {
			r.ChargeN(uint64(i), trace.KTrap, c, 3, 64)
		}
	})
	if got := r.Counts(trace.KHypercall); got != uint64(n) {
		return nil, fmt.Errorf("trace probe: %d hypercall events counted, want %d", got, n)
	}
	if got := r.Counts(trace.KTrap); got != 64*uint64(n64) {
		return nil, fmt.Errorf("trace probe: %d trap events counted, want %d", got, 64*n64)
	}
	if got, want := r.CyclesComp(c), 7*uint64(n)+3*64*uint64(n64); got != want {
		return nil, fmt.Errorf("trace probe: %d cycles charged, want %d", got, want)
	}
	return map[string]metric{
		"trace.charge_ns":    {chargeNs, "ns"},
		"trace.chargen64_ns": {chargeN64Ns, "ns"},
	}, nil
}

func hostConfig() *hw.MachineConfig { return &hw.MachineConfig{Frames: hostFrames} }

func probePool(_ uint64, div int) (map[string]metric, error) {
	p := hw.NewMachinePool()
	p.Put(p.Get(hw.X86(), hostConfig())) // warm
	arch := hw.X86()
	n := iters(40_000, div)
	ns, allocs := measure(n, func() {
		for i := 0; i < n; i++ {
			p.Put(p.Get(arch, hostConfig()))
		}
	})
	if hits, misses := p.Stats(); hits != uint64(n) || misses != 1 {
		return nil, fmt.Errorf("pool probe: %d hits and %d misses, want %d and 1", hits, misses, n)
	}
	return map[string]metric{
		"hw.pool_get_put_ns":     {ns, "ns"},
		"hw.pool_get_put_allocs": {allocs, "count"},
	}, nil
}

func probeMachineNew(_ uint64, div int) (map[string]metric, error) {
	n := iters(4_000, div)
	var bad int
	ns, allocs := measure(n, func() {
		for i := 0; i < n; i++ {
			if m := hw.NewMachine(hw.X86(), hostConfig()); m.Mem.FreeFrames() != hostFrames {
				bad++
			}
		}
	})
	if bad > 0 {
		return nil, fmt.Errorf("machine probe: %d of %d new machines did not start with %d free frames", bad, n, hostFrames)
	}
	return map[string]metric{
		"hw.machine_new_us":     {ns / 1e3, "us"},
		"hw.machine_new_allocs": {allocs, "count"},
	}, nil
}

// probeMemReset fills every frame of a host-sized memory, writes each page,
// and times the Reset that scrubs them — what every warm cell's machine
// release pays.
func probeMemReset(_ uint64, div int) (map[string]metric, error) {
	mem := hw.NewMachine(hw.X86(), hostConfig()).Mem
	n := iters(3_000, div)
	var sw stopwatch
	for i := 0; i < n; i++ {
		fs, err := mem.AllocN("probe", hostFrames)
		if err != nil {
			return nil, fmt.Errorf("reset probe: %w", err)
		}
		for _, f := range fs {
			mem.Data(f)[int(f)%64] = byte(i) | 1
		}
		sw.start()
		mem.Reset()
		sw.stop()
		if mem.FreeFrames() != hostFrames || mem.Data(fs[i%hostFrames])[int(fs[i%hostFrames])%64] != 0 {
			return nil, fmt.Errorf("reset probe: iteration %d left memory unscrubbed", i)
		}
	}
	return map[string]metric{"hw.mem_reset_us": {float64(sw.d.Nanoseconds()) / 1e3 / float64(n), "us"}}, nil
}

// probeMemAllocFree allocates a frame, dirties its page and frees it: the
// frame churn migration and ballooning cause, dominated by page zeroing.
func probeMemAllocFree(_ uint64, div int) (map[string]metric, error) {
	mem := hw.NewMachine(hw.X86(), hostConfig()).Mem
	n := iters(400_000, div)
	var err error
	ns, _ := measure(n, func() {
		for i := 0; i < n && err == nil; i++ {
			var f hw.FrameID
			if f, err = mem.Alloc("probe"); err == nil {
				copy(mem.Data(f)[i%4000:], "dirty-page")
				mem.Free(f)
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("alloc/free probe: %w", err)
	}
	if mem.FreeFrames() != hostFrames {
		return nil, fmt.Errorf("alloc/free probe: %d free frames after the loop, want %d", mem.FreeFrames(), hostFrames)
	}
	f, err := mem.Alloc("probe")
	if err != nil {
		return nil, fmt.Errorf("alloc/free probe: %w", err)
	}
	if !bytes.Equal(mem.Data(f), make([]byte, len(mem.Data(f)))) {
		return nil, errors.New("alloc/free probe: a freed page came back dirty")
	}
	return map[string]metric{"hw.mem_alloc_free_ns": {ns, "ns"}}, nil
}

func probePageTable(_ uint64, div int) (map[string]metric, error) {
	pt := hw.NewPageTableSized(1, hostFrames)
	n := iters(2_000_000, div)
	var bad int
	ns, _ := measure(n, func() {
		for i := 0; i < n; i++ {
			v := hw.VPN(i % hostFrames)
			pt.Map(v, hw.PTE{Frame: hw.FrameID(i), Perms: hw.PermRW, User: true})
			if e, ok := pt.Lookup(v); !ok || e.Frame != hw.FrameID(i) {
				bad++
			}
			pt.Unmap(v)
		}
	})
	if bad > 0 || pt.Len() != 0 {
		return nil, fmt.Errorf("page-table probe: %d bad lookups, %d mappings left", bad, pt.Len())
	}
	return map[string]metric{"hw.pt_map_unmap_ns": {ns, "ns"}}, nil
}

func probeIPC(_ uint64, div int) (map[string]metric, error) {
	k := mk.New(hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 256}))
	cs, err := k.NewSpace("client", mk.NilThread)
	if err != nil {
		return nil, fmt.Errorf("ipc probe: %w", err)
	}
	ss, err := k.NewSpace("server", mk.NilThread)
	if err != nil {
		return nil, fmt.Errorf("ipc probe: %w", err)
	}
	cl := k.NewThread(cs, "client", 1, nil)
	srv := k.NewThread(ss, "server", 2, func(_ *mk.Kernel, _ mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
		return msg, nil
	})
	n := iters(400_000, div)
	var bad int
	ns, allocs := measure(n, func() {
		for i := 0; i < n && err == nil; i++ {
			var reply mk.Msg
			reply, err = k.Call(cl.ID, srv.ID, mk.Msg{Label: 1, Words: []uint64{uint64(i)}})
			if err == nil && (len(reply.Words) != 1 || reply.Words[0] != uint64(i)) {
				bad++
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("ipc probe: %w", err)
	}
	if bad > 0 {
		return nil, fmt.Errorf("ipc probe: %d of %d replies did not echo the request", bad, n)
	}
	return map[string]metric{
		"mk.ipc_call_ns":     {ns, "ns"},
		"mk.ipc_call_allocs": {allocs, "count"},
	}, nil
}

// rxStack is the receive path both OS personalities implement.
type rxStack interface {
	InjectPackets(n, size, dest int)
	DrainRx(dest int) int
	Close()
}

// rxProbe pushes single packets through the receive path of the stack boot
// returns, checking each is delivered to the guest. Packet sizes come from
// the seed.
func rxProbe(layer string, boot func() (rxStack, error)) func(uint64, int) (map[string]metric, error) {
	return func(seed uint64, div int) (map[string]metric, error) {
		s, err := boot()
		if err != nil {
			return nil, fmt.Errorf("%s rx probe: %w", layer, err)
		}
		defer s.Close()
		n := iters(40_000, div)
		sizes := make([]int, n)
		rng := simrand.New(seed)
		for i := range sizes {
			sizes[i] = packetSize - 64 + rng.Intn(129)
		}
		delivered := 0
		ns, allocs := measure(n, func() {
			for i := 0; i < n; i++ {
				s.InjectPackets(1, sizes[i], 0)
				delivered += s.DrainRx(0)
			}
		})
		if delivered != n {
			return nil, fmt.Errorf("%s rx probe: %d of %d packets delivered", layer, delivered, n)
		}
		return map[string]metric{
			layer + ".rx_packet_us":     {ns / 1e3, "us"},
			layer + ".rx_packet_allocs": {allocs, "count"},
		}, nil
	}
}

// newHypervisor boots a hypervisor with one 16-page guest.
func newHypervisor() (*vmm.Hypervisor, *vmm.Domain, *vmm.Domain, error) {
	h, d0, err := vmm.New(hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 512}), 64)
	if err != nil {
		return nil, nil, nil, err
	}
	dU, err := h.CreateDomain("u", 16)
	if err != nil {
		return nil, nil, nil, err
	}
	return h, d0, dU, nil
}

func probeHypercall(_ uint64, div int) (map[string]metric, error) {
	h, _, dU, err := newHypervisor()
	if err != nil {
		return nil, fmt.Errorf("hypercall probe: %w", err)
	}
	n := iters(1_000_000, div)
	before := h.M.Rec.Counts(trace.KHypercall)
	ns, _ := measure(n, func() {
		for i := 0; i < n && err == nil; i++ {
			err = h.Hypercall(dU.ID, "nop", 0)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("hypercall probe: %w", err)
	}
	if got := h.M.Rec.Counts(trace.KHypercall) - before; got != uint64(n) {
		return nil, fmt.Errorf("hypercall probe: %d hypercalls charged, want %d", got, n)
	}
	return map[string]metric{"vmm.hypercall_ns": {ns, "ns"}}, nil
}

// probeFlip grants a frame and transfers it to the peer, ping-ponging one
// frame between Dom0 and the guest; after an even count Dom0 owns it again.
func probeFlip(_ uint64, div int) (map[string]metric, error) {
	h, d0, dU, err := newHypervisor()
	if err != nil {
		return nil, fmt.Errorf("flip probe: %w", err)
	}
	f := d0.FrameAt(0)
	owner, peer := d0, dU
	n := iters(400_000, div)
	ns, _ := measure(n, func() {
		for i := 0; i < n && err == nil; i++ {
			var ref vmm.GrantRef
			if ref, err = h.GrantAccess(owner.ID, f, peer.ID, false); err == nil {
				_, err = h.GrantTransfer(peer.ID, owner.ID, ref)
			}
			owner, peer = peer, owner
		}
	})
	if err != nil {
		return nil, fmt.Errorf("flip probe: %w", err)
	}
	if !d0.OwnsFrame(f) || dU.OwnsFrame(f) {
		return nil, errors.New("flip probe: the frame did not end back with Dom0")
	}
	return map[string]metric{"vmm.flip_ns": {ns, "ns"}}, nil
}

// probeMigrate live-migrates an E11-sized guest between two pooled
// machines while it writes migDirty distinct seeded pages per round.
func probeMigrate(seed uint64, div int) (map[string]metric, error) {
	pool := hw.NewMachinePool()
	cfg := &hw.MachineConfig{Frames: migFrames + migHeadroom}
	rng := simrand.New(seed)
	n := iters(600, div)
	var sw stopwatch
	pages := 0
	for i := 0; i < n; i++ {
		moved, err := migrateOnce(pool, cfg, rng, &sw)
		if err != nil {
			return nil, fmt.Errorf("migrate probe: iteration %d: %w", i, err)
		}
		pages += moved
	}
	return map[string]metric{
		"vmm.migrate_us":     {float64(sw.d.Nanoseconds()) / 1e3 / float64(n), "us"},
		"vmm.migrate_allocs": {float64(sw.allocs) / float64(n), "count"},
		"vmm.migrate_pages":  {float64(pages) / float64(n), "count"},
	}, nil
}

func migrateOnce(pool *hw.MachinePool, cfg *hw.MachineConfig, rng *simrand.Rand, sw *stopwatch) (int, error) {
	srcM, dstM := pool.Get(hw.X86(), cfg), pool.Get(hw.X86(), cfg)
	defer pool.Put(srcM)
	defer pool.Put(dstM)
	src, _, err := vmm.New(srcM, 64)
	if err != nil {
		return 0, err
	}
	dst, _, err := vmm.New(dstM, 64)
	if err != nil {
		return 0, err
	}
	dom, err := src.CreateDomain("mig", migFrames)
	if err != nil {
		return 0, err
	}
	const marker = "probe-travels-whole"
	for gpn := 0; gpn < migFrames; gpn++ {
		srcM.Mem.Data(dom.FrameAt(gpn))[0] = byte(gpn)
	}
	copy(srcM.Mem.Data(dom.FrameAt(migFrames - 1))[16:], marker)
	var workErr error
	work := func(round int) {
		for _, gpn := range rng.Perm(migFrames)[:migDirty] {
			if err := src.GuestMemWrite(dom.ID, gpn, 1, []byte{byte(round)}); err != nil && workErr == nil {
				workErr = err
			}
		}
	}
	sw.start()
	moved, stats, err := vmm.MigrateLive(src, dom.ID, dst, vmm.LiveOpts{
		MaxRounds: migRounds, WSSCutoff: migCutoff, GuestWork: work,
	})
	sw.stop()
	if err == nil {
		err = workErr
	}
	if err != nil {
		return 0, err
	}
	switch {
	case stats.PagesMoved != migPagesMoved:
		return 0, fmt.Errorf("moved %d pages, want %d", stats.PagesMoved, migPagesMoved)
	case src.Alive(dom.ID) || !dst.Alive(moved.ID):
		return 0, errors.New("domain is not resident on the destination only")
	case string(dstM.Mem.Data(moved.FrameAt(migFrames - 1))[16:16+len(marker)]) != marker:
		return 0, errors.New("guest memory corrupted in flight")
	}
	return stats.PagesMoved, nil
}

// probeChurn drives the fixed churn schedules over a pooled E13-style
// fleet, in an order the seed permutes, and checks each cluster's books.
func probeChurn(seed uint64, div int) (map[string]metric, error) {
	pool := hw.NewMachinePool()
	src := func(mc *hw.MachineConfig) (*hw.Machine, func()) {
		m := pool.Get(hw.X86(), mc)
		return m, func() { pool.Put(m) }
	}
	rng := simrand.New(seed)
	n := iters(40, div)
	var sw stopwatch
	migrations := 0
	for i := 0; i < n; i++ {
		for _, j := range rng.Perm(len(churnRuns)) {
			run := churnRuns[j]
			got, err := churnOnce(src, run.seed, run.policy, &sw)
			if err != nil {
				return nil, fmt.Errorf("churn probe: schedule %#x: %w", run.seed, err)
			}
			if got != run.migrations {
				return nil, fmt.Errorf("churn probe: schedule %#x made %d migrations, want %d", run.seed, got, run.migrations)
			}
			migrations += got
		}
	}
	runs := float64(n * len(churnRuns))
	return map[string]metric{
		"cluster.churn_ms":     {float64(sw.d.Nanoseconds()) / 1e6 / runs, "ms"},
		"cluster.churn_allocs": {float64(sw.allocs) / runs, "count"},
		"cluster.migrations":   {float64(migrations) / float64(n), "count"},
	}, nil
}

func churnOnce(src cluster.MachineSource, seed uint64, pol cluster.Policy, sw *stopwatch) (int, error) {
	c, err := cluster.New(cluster.Config{Hosts: churnHosts, HostFrames: hostFrames, Policy: pol}, src)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	sw.start()
	err = c.RunChurn(cluster.ChurnOpts{Events: churnEvents, Seed: seed, MinPages: churnMinPage, MaxPages: churnMaxPage})
	sw.stop()
	if err != nil {
		return 0, err
	}
	return c.Stats().Migrations, checkClusterBooks(c)
}

// checkClusterBooks cross-checks the control plane's statistics against
// its log and its placed guests.
func checkClusterBooks(c *cluster.Cluster) error {
	s := c.Stats()
	logged := map[string]int{}
	for _, line := range c.Log() {
		verb, _, _ := strings.Cut(line, " ")
		logged[verb]++
	}
	committed := 0
	for _, g := range c.Guests() {
		committed += g.Nominal
	}
	switch {
	case logged["place"] != s.Placed || logged["reject"] != s.Rejected ||
		logged["remove"] != s.Removed || logged["migrate"] != s.Migrations:
		return fmt.Errorf("stats %+v disagree with the log %v", s, logged)
	case s.Placed-s.Removed != len(c.Guests()):
		return fmt.Errorf("%d placed - %d removed != %d guests", s.Placed, s.Removed, len(c.Guests()))
	case committed != c.CommittedPages():
		return fmt.Errorf("guests' nominal pages sum to %d, CommittedPages is %d", committed, c.CommittedPages())
	case len(s.Downtimes) != s.Migrations:
		return fmt.Errorf("%d downtimes for %d migrations", len(s.Downtimes), s.Migrations)
	}
	return nil
}

// probeFS writes and reads back a seeded multi-block file on fslite.
func probeFS(seed uint64, div int) (map[string]metric, error) {
	const blockSize = 1024
	fs, err := fslite.Mkfs(scenario.NewMemDev(blockSize), blockSize, 64)
	if err != nil {
		return nil, fmt.Errorf("fslite probe: %w", err)
	}
	if err := fs.Create("f"); err != nil {
		return nil, fmt.Errorf("fslite probe: %w", err)
	}
	data := make([]byte, 3*blockSize+100)
	rng := simrand.New(seed)
	for i := range data {
		data[i] = byte(rng.Uint64())
	}
	n := iters(10_000, div)
	var bad int
	ns, _ := measure(n, func() {
		for i := 0; i < n && err == nil; i++ {
			data[i%len(data)]++
			if err = fs.WriteFile("f", data); err != nil {
				break
			}
			var got []byte
			if got, err = fs.ReadFile("f"); err == nil && !bytes.Equal(got, data) {
				bad++
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("fslite probe: %w", err)
	}
	if bad > 0 {
		return nil, fmt.Errorf("fslite probe: %d of %d reads did not return what was written", bad, n)
	}
	if err := fs.CheckConsistency(); err != nil {
		return nil, fmt.Errorf("fslite probe: %w", err)
	}
	return map[string]metric{"fslite.write_read_us": {ns / 1e3, "us"}}, nil
}
