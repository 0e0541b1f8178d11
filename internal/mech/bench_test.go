package mech

import (
	"testing"

	"tusim/internal/cpu"
)

// ssbSteady builds an SSB whose TSOB holds 512 committed stores over 16
// lines the core already holds writable, and returns a step that
// commits one store into the SB, ticks the SSB (the store moves into
// the TSOB, the drain lookahead walks the TSOB, the head drains), runs
// a forwarding hit and a miss, and advances two cycles. TSOB occupancy
// stays at 512 from step to step.
func ssbSteady(t *testing.T) (s *SSB, step func()) {
	r := newRig(t, nil, "ssb", nil)
	s = r.mech.(*SSB)
	const lines = 16
	line := func(i uint64) uint64 { return 0x20000 + 64*(i%lines) }
	for i := uint64(0); i < lines; i++ {
		r.priv.RequestWritable(line(i), false, true, nil)
	}
	r.q.Drain(r.q.Now() + 1_000_000)
	for i := uint64(0); i < lines; i++ {
		if !r.priv.Writable(line(i)) {
			t.Fatalf("line %#x not writable after warm-up", line(i))
		}
	}
	var seq uint64
	store := func() cpu.SBEntry {
		seq++
		return cpu.SBEntry{Seq: seq, Addr: line(seq) + 8*(seq/lines%8), Size: 8, Data: [8]byte{byte(seq)}}
	}
	for s.tsob.Len() < 512 {
		st := store()
		s.enqueue(&st)
	}
	step = func() {
		st := store()
		e := r.core.SB.Push(st.Seq, st.Addr, st.Size)
		e.Data = st.Data
		r.core.SB.MarkExecuted(e)
		e.Committed = true
		s.Tick()
		if res, data := s.Forward(st.Addr, 8); res != cpu.FwdHit || data != st.Data {
			t.Fatalf("youngest TSOB store did not forward: %v %v", res, data)
		}
		if res, _ := s.Forward(0x900000, 8); res != cpu.FwdMiss {
			t.Fatalf("unbuffered line did not miss: %v", res)
		}
		r.q.Advance()
		r.q.Advance()
	}
	for i := 0; i < 100; i++ {
		step()
	}
	if s.tsob.Len() != 512 || !r.core.SB.Empty() {
		t.Fatalf("not in steady state: TSOB %d, SB %d", s.tsob.Len(), r.core.SB.Len())
	}
	return s, step
}

// TestSSBZeroAlloc pins SSB's steady state at zero allocations per
// cycle: TSOB enqueue, drain lookahead, head drain with its shared-cache
// write-port event, and two TSOB forwarding searches.
func TestSSBZeroAlloc(t *testing.T) {
	s, step := ssbSteady(t)
	drained := s.cDrained.Value()
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("SSB tick+forward allocates %.1f allocs/cycle, want 0", n)
	}
	if got := s.cDrained.Value() - drained; got != 1001 {
		t.Fatalf("drained %d stores in 1001 steps; the TSOB head blocked", got)
	}
}

// BenchmarkTSOBForward is one SSB forwarding search of a full
// 1024-entry TSOB holding 128 lines of eight sequential 8-byte stores.
// miss: the load's line is not buffered. hit: the load reads the
// oldest store on the middle line, so the scan visits about half the
// TSOB.
func BenchmarkTSOBForward(b *testing.B) {
	r := newRig(b, nil, "ssb", nil)
	s := r.mech.(*SSB)
	for seq := uint64(1); !s.tsob.Full(); seq++ {
		s.enqueue(&cpu.SBEntry{Seq: seq, Addr: 0x40000 + 8*seq, Size: 8})
	}
	for _, bc := range []struct {
		name string
		addr uint64
		want cpu.ForwardResult
	}{
		{"miss", 0x900000, cpu.FwdMiss},
		{"hit", 0x40000 + 64*64, cpu.FwdHit},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res, _ := s.Forward(bc.addr, 8); res != bc.want {
					b.Fatalf("Forward(%#x) = %v, want %v", bc.addr, res, bc.want)
				}
			}
		})
	}
}
