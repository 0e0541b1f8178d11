package cpu

import (
	"testing"

	"tusim/internal/stats"
	"tusim/internal/trace"
)

// drainSB builds a store buffer instrumented exactly like NewCore's: an
// OnPop hook that observes the drain-latency histogram and emits the
// SBDrain trace event. The returned step pushes, commits, and pops one
// store through the hook — the drain hot path in miniature.
func drainSB(tr *trace.Tracer) (sb *StoreBuffer, step func()) {
	sb = NewStoreBuffer(16)
	st := stats.NewSet("bench")
	hDrain := st.Histogram("sb_drain_latency")
	var cycle uint64
	sb.OnPop = func(e *SBEntry) {
		var lat uint64
		if cycle >= e.CommitCycle {
			lat = cycle - e.CommitCycle
		}
		hDrain.Observe(lat)
		tr.Emit(trace.SBDrain, 0, cycle, e.Addr, e.Seq, lat)
	}
	var seq uint64
	step = func() {
		cycle++
		e := sb.Push(seq, 0x1000+(seq%64)*8, 8)
		seq++
		sb.MarkExecuted(e)
		e.Committed = true
		e.CommitCycle = cycle
		sb.Pop()
	}
	return sb, step
}

// TestDrainPathZeroAlloc pins the ISSUE's invariant: with tracing
// disabled (the default nil tracer), the fully instrumented
// push → commit → pop drain path allocates zero bytes per store.
// Histogram observation is atomic adds and the nil-tracer Emit is a
// branch, so instrumentation costs the untraced simulator nothing.
func TestDrainPathZeroAlloc(t *testing.T) {
	_, step := drainSB(nil)
	step() // warm the histogram handle
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("disabled-tracer drain path allocates %.1f allocs/store, want 0", n)
	}
}

// TestDrainPathZeroAllocTraced: even with tracing on, the preallocated
// ring keeps the drain path allocation-free (it may drop, never grow).
func TestDrainPathZeroAllocTraced(t *testing.T) {
	_, step := drainSB(trace.New(64))
	step()
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("traced drain path allocates %.1f allocs/store, want 0", n)
	}
}

func benchDrain(b *testing.B, tr *trace.Tracer) {
	_, step := drainSB(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkDrainUntraced is the production default: nil tracer.
func BenchmarkDrainUntraced(b *testing.B) { benchDrain(b, nil) }

// BenchmarkDrainDisabled holds a constructed but disabled tracer.
func BenchmarkDrainDisabled(b *testing.B) {
	tr := trace.New(1 << 10)
	tr.SetEnabled(false)
	benchDrain(b, tr)
}

// BenchmarkDrainTraced records every drain into the ring.
func BenchmarkDrainTraced(b *testing.B) { benchDrain(b, trace.New(1<<10)) }

// filteredSB returns a 114-entry SB kept at 100 executed, committed
// stores, and a step that pushes, commits and searches one store and
// pops the oldest: the line filter sees an insert, a hit, a miss and a
// removal per step. Addresses walk 200 lines at two stores per line.
func filteredSB() (sb *StoreBuffer, step func()) {
	sb = NewStoreBuffer(114)
	var seq uint64
	push := func() {
		addr := 0x10000 + (seq%400)*32
		e := sb.Push(seq, addr, 8)
		e.Data = [8]byte{byte(seq)}
		sb.MarkExecuted(e)
		e.Committed = true
		seq++
	}
	for sb.Len() < 100 {
		push()
	}
	step = func() {
		push()
		if res, _ := sb.Search(seq, 0x10000+((seq-1)%400)*32, 8); res != FwdHit {
			panic("filtered SB: own store did not forward")
		}
		if res, _ := sb.Search(seq, 0x90000, 8); res != FwdMiss {
			panic("filtered SB: unbuffered line did not miss")
		}
		sb.Pop()
	}
	return sb, step
}

// TestSearchPathZeroAlloc pins the filtered SB's steady state: push,
// commit, two searches and a pop allocate nothing.
func TestSearchPathZeroAlloc(t *testing.T) {
	_, step := filteredSB()
	for i := 0; i < 1000; i++ {
		step()
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("filtered SB push->search->pop allocates %.1f allocs/store, want 0", n)
	}
}

// BenchmarkSBSearch is one forwarding search of a full 114-entry SB
// that no buffered store aliases (the common case: the load goes on to
// the mechanism and the L1D).
func BenchmarkSBSearch(b *testing.B) {
	sb := NewStoreBuffer(114)
	for seq := uint64(0); !sb.Full(); seq++ {
		e := sb.Push(seq, 0x10000+seq*8, 8)
		sb.MarkExecuted(e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, _ := sb.Search(1000, 0x90000, 8); res != FwdMiss {
			b.Fatal("no-alias search did not miss")
		}
	}
}
