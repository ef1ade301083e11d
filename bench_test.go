package vmmk

// One benchmark family covers every registered experiment, plus primitive
// micro-benchmarks. BenchmarkExperiment is generated from core.Specs(): for
// each experiment id, and for "all" (the whole evaluation in registry
// order), it runs the experiment at its registry defaults through
// RunExperiment and renders the text table — what `vmmklab <id>` does. A
// newly registered experiment is benched with no edit here.
//
// The serial variants pin the engine to one worker so they measure the
// experiments themselves; the parallel variants run the same tables on a
// GOMAXPROCS-wide pool, so comparing the two is the engine's speedup:
//
//	go test -run '^$' -bench 'Experiment/^(e7|e8)$' .
//
// Both variants produce identical tables (see core's determinism tests).

import (
	"context"
	"testing"

	"vmmk/internal/core"
	"vmmk/internal/hw"
	"vmmk/internal/mk"
	"vmmk/internal/trace"
	"vmmk/internal/vmm"
)

// BenchmarkExperiment runs BenchmarkExperiment/<id|all>/{serial,parallel}.
// Each sub-benchmark owns its runner, so its machine pools warm over its
// own iterations, whichever sub-benchmarks ran before it.
func BenchmarkExperiment(b *testing.B) {
	var all []string
	for _, s := range core.Specs() {
		all = append(all, s.ID)
	}
	run := func(b *testing.B, ids []string) {
		for _, mode := range []struct {
			name     string
			parallel int
		}{{"serial", 1}, {"parallel", 0}} {
			b.Run(mode.name, func(b *testing.B) {
				r := core.NewRunner(mode.parallel)
				for b.Loop() {
					for _, id := range ids {
						res, err := r.RunExperiment(context.Background(), id, nil)
						if err != nil {
							b.Fatalf("%s: %v", id, err)
						}
						if res.Text() == "" {
							b.Fatalf("%s: empty table", id)
						}
					}
				}
			})
		}
	}
	for _, id := range all {
		b.Run(id, func(b *testing.B) { run(b, []string{id}) })
	}
	b.Run("all", func(b *testing.B) { run(b, all) })
}

// BenchmarkResultJSON measures the stable JSON encoding of a finished
// Result — the cost downstream tooling pays per stored document.
func BenchmarkResultJSON(b *testing.B) {
	res, err := core.SerialRunner().RunExperiment(context.Background(), "e7", core.Params{"syscalls": 100})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.JSON(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- primitive micro-benchmarks (real-time cost of the simulators
// themselves, complementing the simulated-cycle numbers in E7) ---

// BenchmarkMKIPCCall measures the wall-clock cost of one simulated IPC
// round trip.
func BenchmarkMKIPCCall(b *testing.B) {
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 256})
	k := mk.New(m)
	cs, err := k.NewSpace("c", mk.NilThread)
	if err != nil {
		b.Fatal(err)
	}
	ss, err := k.NewSpace("s", mk.NilThread)
	if err != nil {
		b.Fatal(err)
	}
	cl := k.NewThread(cs, "c", 1, nil)
	srv := k.NewThread(ss, "s", 2, func(k *mk.Kernel, from mk.ThreadID, msg mk.Msg) (mk.Msg, error) {
		return msg, nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Call(cl.ID, srv.ID, mk.Msg{Words: []uint64{1}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMMHypercall measures the wall-clock cost of one simulated
// hypercall.
func BenchmarkVMMHypercall(b *testing.B) {
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 512})
	h, _, err := vmm.New(m, 64)
	if err != nil {
		b.Fatal(err)
	}
	dU, err := h.CreateDomain("u", 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Hypercall(dU.ID, "nop", 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMMPageFlip measures the wall-clock cost of one simulated grant
// + flip pair, ping-ponging a single frame between two domains so the
// benchmark is balanced at any iteration count.
func BenchmarkVMMPageFlip(b *testing.B) {
	m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 512})
	h, d0, err := vmm.New(m, 64)
	if err != nil {
		b.Fatal(err)
	}
	dU, err := h.CreateDomain("u", 16)
	if err != nil {
		b.Fatal(err)
	}
	f := d0.FrameAt(0)
	owner, peer := d0, dU
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, err := h.GrantAccess(owner.ID, f, peer.ID, false)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.GrantTransfer(peer.ID, owner.ID, ref); err != nil {
			b.Fatal(err)
		}
		owner, peer = peer, owner
	}
}

// BenchmarkMachinePool measures the engine's machine-recycling path — one
// Get (a Reset machine after the first iteration) plus one Put — against
// booting the same machine from scratch, the fixed cost every experiment
// cell used to pay.
func BenchmarkMachinePool(b *testing.B) {
	cfg := &hw.MachineConfig{Frames: 2048}
	b.Run("pooled", func(b *testing.B) {
		p := hw.NewMachinePool()
		p.Put(p.Get(hw.X86(), cfg)) // warm the pool
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Put(p.Get(hw.X86(), cfg))
		}
	})
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if m := hw.NewMachine(hw.X86(), cfg); m == nil {
				b.Fatal("nil machine")
			}
		}
	})
}

// BenchmarkChargeN compares charging 64 homogeneous events through the CPU
// one at a time against the single batched ChargeN call the hot loops now
// use. Both leave identical counters; the gap is the engine's win.
func BenchmarkChargeN(b *testing.B) {
	const n = 64
	b.Run("loop", func(b *testing.B) {
		m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 16})
		c := m.Rec.Intern("bench.comp")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				m.CPU.Charge(c, trace.KTrap, 100)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		m := hw.NewMachine(hw.X86(), &hw.MachineConfig{Frames: 16})
		c := m.Rec.Intern("bench.comp")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.CPU.ChargeN(c, trace.KTrap, 100, n)
		}
	})
}

// BenchmarkXenStackRxPacket measures the full end-to-end receive path.
func BenchmarkXenStackRxPacket(b *testing.B) {
	s, err := core.NewXenStack(core.Config{Frames: 16384})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.InjectPackets(1, 512, 0)
		if s.DrainRx(0) != 1 {
			b.Fatal("packet lost")
		}
	}
}

// BenchmarkMKStackRxPacket measures the microkernel's receive path.
func BenchmarkMKStackRxPacket(b *testing.B) {
	s, err := core.NewMKStack(core.Config{Frames: 16384})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.InjectPackets(1, 512, 0)
		if s.DrainRx(0) != 1 {
			b.Fatal("packet lost")
		}
	}
}
