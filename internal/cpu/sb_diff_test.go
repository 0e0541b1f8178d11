package cpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tusim/internal/memsys"
)

// linearQueue is the reference model for StoreBuffer: a plain slice of
// entries searched by a full youngest-to-oldest scan with no line
// filter. It lives only in this file.
type linearQueue struct {
	capacity  int
	es        []SBEntry
	overflows uint64
}

func (r *linearQueue) push(e SBEntry) bool {
	if len(r.es) == r.capacity {
		r.overflows++
		return false
	}
	r.es = append(r.es, e)
	return true
}

func (r *linearQueue) pop() { r.es = r.es[1:] }

func (r *linearQueue) search(loadSeq, addr uint64, size uint8) (ForwardResult, [8]byte) {
	var zero [8]byte
	for i := range r.es {
		if r.es[i].Seq < loadSeq && !r.es[i].Executed {
			return FwdConflict, zero
		}
	}
	want := memsys.MaskFor(addr, size)
	for i := len(r.es) - 1; i >= 0; i-- {
		e := &r.es[i]
		if e.Seq >= loadSeq || e.Line() != addr&^63 {
			continue
		}
		m := e.Mask()
		if !m.Overlaps(want) {
			continue
		}
		if !m.Covers(want) {
			return FwdConflict, zero
		}
		var out [8]byte
		off := int(addr&63) - int(e.Addr&63)
		copy(out[:size], e.Data[off:off+int(size)])
		return FwdHit, out
	}
	return FwdMiss, zero
}

func (r *linearQueue) lookahead(k int) []uint64 {
	var out []uint64
	last := ^uint64(0)
	for i := range r.es {
		if len(out) == k || !r.es[i].Committed {
			break
		}
		if ln := r.es[i].Line(); ln != last {
			last = ln
			out = append(out, ln)
		}
	}
	return out
}

// opBytes is the size of one encoded queueOps operation: an opcode
// followed by its operands (unused operand bytes are ignored).
const opBytes = 12

// queueOps drives a StoreBuffer and the linear reference through the
// same operation sequence decoded from ops, opBytes per operation,
// failing on the first divergence. In tsob mode every pushed entry is already executed and
// committed and loads search with AllOlder, as SSB's TSOB does; in SB
// mode stores execute out of order, commit in order, and loads carry a
// sequence number that hides younger stores.
func queueOps(t *testing.T, capacity int, tsob bool, ops []byte) {
	sb := NewStoreBuffer(capacity)
	ref := &linearQueue{capacity: capacity}
	var rec []byte
	next := func() byte {
		if len(rec) == 0 {
			return 0
		}
		b := rec[0]
		rec = rec[1:]
		return b
	}
	// Addresses: mostly one of four hot lines (long same-line runs and
	// partial overlaps), sometimes one of 64 others; every size at
	// every in-line offset where the access fits the line.
	access := func() (uint64, uint8) {
		b := next()
		line := 0x4000 + 64*uint64(b&3)
		if b&0xc0 == 0xc0 {
			line = 0x10000 + 64*uint64(b&0x3f)
		}
		size := uint8(1) << (next() & 3)
		off := uint64(next()) % uint64(65-size)
		return line + off, size
	}
	var seq uint64 = 1
	for step := 0; step*opBytes < len(ops); step++ {
		rec = ops[step*opBytes : min(len(ops), (step+1)*opBytes)]
		where := func() string { return fmt.Sprintf("step %d (cap %d, tsob %v)", step, capacity, tsob) }
		switch op := next() % 8; op {
		case 0, 1: // push
			addr, size := access()
			e := SBEntry{Seq: seq, Addr: addr, Size: size, Executed: tsob, Committed: tsob}
			for j := range e.Data {
				e.Data[j] = next()
			}
			seq++
			got := sb.Push(e.Seq, e.Addr, e.Size)
			if got != nil {
				// A TSOB entry is copied in already executed and
				// committed, as SSB's enqueue does.
				got.Data, got.Committed = e.Data, tsob
				if tsob {
					sb.MarkExecuted(got)
				}
			}
			if ok := ref.push(e); ok != (got != nil) {
				t.Fatalf("%s: push accepted %v, reference %v", where(), got != nil, ok)
			}
		case 2: // execute any one store, possibly again
			if tsob || len(ref.es) == 0 {
				continue
			}
			j := int(next()) % len(ref.es)
			ref.es[j].Executed = true
			sb.MarkExecuted(sb.at(j))
		case 3: // execute a run of the oldest unexecuted stores
			n := int(next()%64) + 1
			for j := 0; j < len(ref.es) && n > 0; j++ {
				if !ref.es[j].Executed {
					ref.es[j].Executed = true
					sb.MarkExecuted(sb.at(j))
					n--
				}
			}
		case 4: // commit up to four of the oldest stores, in order
			n := int(next()%4) + 1
			for j := 0; j < len(ref.es) && n > 0; j++ {
				if ref.es[j].Committed {
					continue
				}
				if !ref.es[j].Executed {
					break
				}
				ref.es[j].Committed = true
				sb.at(j).Committed = true
				n--
			}
		case 5: // pop a committed head
			if len(ref.es) == 0 || !ref.es[0].Committed {
				continue
			}
			ref.pop()
			sb.Pop()
		case 6: // search
			addr, size := access()
			loadSeq := AllOlder
			if !tsob {
				// Half the loads are younger than every buffered store;
				// the rest fall anywhere down to older than all of them.
				span := uint64(len(ref.es)) + 2
				loadSeq = seq + 1 - uint64(next()>>1)%span*uint64(next()&1)
			}
			gr, gd := sb.Search(loadSeq, addr, size)
			wr, wd := ref.search(loadSeq, addr, size)
			if gr != wr || gd != wd {
				t.Fatalf("%s: Search(%d, %#x, %d) = %v %v, reference %v %v", where(), loadSeq, addr, size, gr, gd, wr, wd)
			}
		case 7: // drain lookahead
			k := int(next()%8) + 1
			var got []uint64
			sb.LookaheadLines(k, func(line uint64) { got = append(got, line) })
			if want := ref.lookahead(k); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: LookaheadLines(%d) = %#x, reference %#x", where(), k, got, want)
			}
		}
		if sb.Len() != len(ref.es) || sb.Overflows != ref.overflows {
			t.Fatalf("%s: len %d overflows %d, reference %d %d", where(), sb.Len(), sb.Overflows, len(ref.es), ref.overflows)
		}
		if h := sb.Head(); len(ref.es) > 0 && (h == nil || *h != ref.es[0]) {
			t.Fatalf("%s: head %+v, reference %+v", where(), h, ref.es[0])
		}
	}
	// The line filter counts exactly the buffered entries.
	counts := make([]uint32, len(sb.lineCount))
	for j := range ref.es {
		counts[sb.bucket(ref.es[j].Addr)]++
	}
	if !reflect.DeepEqual(sb.lineCount, counts) {
		t.Fatal("line filter counts differ from the buffered entries")
	}
}

// randomOps generates a seeded operation stream that rotates through
// fill (no pops), drain (no pushes) and mixed phases, so the queue
// repeatedly runs full and empty and its ring wraps many times.
func randomOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 0, n*opBytes)
	for k := 0; k < n; k++ {
		op := byte(rng.Intn(8))
		switch phase := k / 2000 % 3; {
		case phase == 0 && op == 5:
			op = 0
		case phase == 1 && op <= 1:
			op = 4 + op // commit or pop instead
		}
		ops = append(ops, op)
		for j := 1; j < opBytes; j++ {
			ops = append(ops, byte(rng.Intn(256)))
		}
	}
	return ops
}

// TestStoreQueueMatchesLinearScan is the differential proof that the
// line filter changes no forwarding result: the filtered queue and the
// linear scan agree on every search and lookahead, in SB and TSOB
// mode, at power-of-two and other capacities, over many ring laps.
// At the small capacities the 68 test lines share filter buckets, so
// searches also take the scan for lines with no buffered store.
func TestStoreQueueMatchesLinearScan(t *testing.T) {
	n := 120000
	if testing.Short() {
		n = 20000
	}
	for _, tc := range []struct {
		capacity int
		tsob     bool
	}{
		{1, false}, {32, false}, {64, false}, {114, false}, {1000, false},
		{1, true}, {7, true}, {1000, true}, {1024, true},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("cap%d/tsob=%v/seed%d", tc.capacity, tc.tsob, seed), func(t *testing.T) {
				queueOps(t, tc.capacity, tc.tsob, randomOps(seed, n))
			})
		}
	}
}

// fuzzCaps are the capacities FuzzStoreQueue chooses from.
var fuzzCaps = [...]int{1, 3, 8, 32, 114, 1000}

// FuzzStoreQueue runs the differential rig on arbitrary operation
// streams. The first byte picks the mode (bit 0: TSOB) and capacity.
func FuzzStoreQueue(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8, 3, 0, 4, 6, 0, 0, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := fuzzCaps[int(data[0]>>1)%len(fuzzCaps)]
		queueOps(t, capacity, data[0]&1 == 1, data[1:])
	})
}
