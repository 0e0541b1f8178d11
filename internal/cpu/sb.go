// Package cpu models the out-of-order core of Table I: a trace-driven
// pipeline with ROB, load queue, and store buffer, Fog-style execution
// latencies, prefetch-at-commit, SB-size-dependent store-to-load
// forwarding, and per-resource dispatch-stall attribution. The store
// drain path is pluggable (DrainMechanism) so the baseline, TUS, SSB,
// CSB, and SPB policies share one core.
package cpu

import (
	"math/bits"

	"tusim/internal/memsys"
)

// SBEntry is one store buffer slot. The SB is unified for non-committed
// and committed stores, as in x86 processors (paper footnote 1).
type SBEntry struct {
	Seq       uint64
	Addr      uint64
	Size      uint8
	Data      [8]byte
	Executed  bool // address generated and data captured
	Committed bool
	// CommitCycle is the cycle the store's ROB entry retired (set by the
	// core at commit). Drain latency = pop cycle − CommitCycle. Purely
	// observational: no mechanism reads it for timing decisions.
	CommitCycle uint64
}

// Line returns the cache line address of the entry.
func (e *SBEntry) Line() uint64 { return e.Addr &^ 63 }

// Mask returns the byte mask of the entry within its line.
func (e *SBEntry) Mask() memsys.Mask { return memsys.MaskFor(e.Addr, e.Size) }

// StoreBuffer is a program-order store queue that every load searches
// associatively (the CAM the paper's energy analysis centres on). The
// core's SB and SSB's TSOB are both StoreBuffers.
//
// Entries live in a power-of-two ring addressed by absolute positions
// (slot = pos & mask), so the architectural capacity can be any size.
// A counting filter over the buffered lines lets Search skip the scan
// when no buffered store can share the load's line, the outcome of
// almost every search. An entry's Addr must not change after Push: it
// keys the filter.
type StoreBuffer struct {
	entries  []SBEntry
	mask     uint64
	capacity int
	head     uint64 // absolute position of the oldest entry
	count    int
	// lineCount[bucket(addr)] counts the buffered entries whose line
	// hashes to that bucket, so a zero bucket proves no entry is on
	// the line. lineShift maps the line hash to a bucket.
	lineCount []uint32
	lineShift uint
	// unexec is the position of the oldest store whose address is
	// still unknown, or head+count when every store has executed, so
	// blocked loads don't rescan the CAM each cycle. Only executed
	// stores are popped, so head never passes it.
	unexec uint64
	// Overflows counts Push attempts on a full buffer. Dispatch checks
	// Full first, so a nonzero count means SB accounting drifted; the
	// core surfaces it as a counted stall instead of killing the run.
	Overflows uint64
	// OnPop, when set, observes each entry just before it leaves the
	// buffer. Every drain mechanism pops through here, so the core gets
	// a uniform drain-event hook without each mechanism carrying a
	// clock. Must be observational only.
	OnPop func(*SBEntry)
}

// lineBucketsPerSlot sizes the line filter: with 16 buckets per ring
// slot, a full queue of distinct lines leaves at most 1 in 16 of the
// buckets a load can hash to occupied.
const lineBucketsPerSlot = 16

// AllOlder is the Search bound for a queue of committed stores (SSB's
// TSOB): every buffered store is older than the searching load.
const AllOlder = ^uint64(0)

// NewStoreBuffer allocates a store queue with the given capacity.
func NewStoreBuffer(capacity int) *StoreBuffer {
	size := 1
	for size < capacity {
		size <<= 1
	}
	buckets := size * lineBucketsPerSlot
	return &StoreBuffer{
		entries:   make([]SBEntry, size),
		mask:      uint64(size - 1),
		capacity:  capacity,
		lineCount: make([]uint32, buckets),
		lineShift: uint(64 - bits.TrailingZeros(uint(buckets))),
	}
}

// bucket returns the line filter bucket of an address (Fibonacci
// hashing of the line number).
func (sb *StoreBuffer) bucket(addr uint64) uint64 {
	return (addr >> 6) * 0x9e3779b97f4a7c15 >> sb.lineShift
}

// Cap returns the SB capacity.
func (sb *StoreBuffer) Cap() int { return sb.capacity }

// Len returns the number of occupied slots.
func (sb *StoreBuffer) Len() int { return sb.count }

// Full reports whether dispatch must stall on a store.
func (sb *StoreBuffer) Full() bool { return sb.count == sb.capacity }

// Empty reports an empty SB.
func (sb *StoreBuffer) Empty() bool { return sb.count == 0 }

// Push appends a dispatched store in program order and returns its slot
// handle, or nil when the buffer is full (the overflow is counted and
// the caller stalls the store instead of the process dying).
func (sb *StoreBuffer) Push(seq, addr uint64, size uint8) *SBEntry {
	if sb.Full() {
		sb.Overflows++
		return nil
	}
	// When every older store has executed, unexec already holds this
	// position, so the new store becomes the oldest unexecuted one.
	e := &sb.entries[(sb.head+uint64(sb.count))&sb.mask]
	sb.count++
	*e = SBEntry{Seq: seq, Addr: addr, Size: size}
	sb.lineCount[sb.bucket(addr)]++
	return e
}

// MarkExecuted records that the entry's address/data are now known
// (callers must use this instead of setting Executed directly so the
// oldest-unexecuted position stays coherent).
func (sb *StoreBuffer) MarkExecuted(e *SBEntry) {
	e.Executed = true
	end := sb.head + uint64(sb.count)
	if sb.unexec == end || e != &sb.entries[sb.unexec&sb.mask] {
		return
	}
	for sb.unexec++; sb.unexec < end && sb.entries[sb.unexec&sb.mask].Executed; sb.unexec++ {
	}
}

// Head returns the oldest entry, or nil when empty.
func (sb *StoreBuffer) Head() *SBEntry {
	if sb.count == 0 {
		return nil
	}
	return &sb.entries[sb.head&sb.mask]
}

// Pop removes the oldest entry (after it drained to the memory system).
func (sb *StoreBuffer) Pop() {
	if sb.count == 0 {
		// Invariant: mechanisms pop only after Head() returned non-nil.
		panic("cpu: pop from empty store buffer")
	}
	e := &sb.entries[sb.head&sb.mask]
	if sb.OnPop != nil {
		sb.OnPop(e)
	}
	sb.lineCount[sb.bucket(e.Addr)]--
	sb.head++
	sb.count--
}

// at returns the i-th oldest entry (0 = head).
func (sb *StoreBuffer) at(i int) *SBEntry {
	return &sb.entries[(sb.head+uint64(i))&sb.mask]
}

// ForwardResult classifies an SB search for a load.
type ForwardResult uint8

// Forwarding outcomes.
const (
	// FwdMiss: no older store overlaps; the load may go to memory.
	FwdMiss ForwardResult = iota
	// FwdHit: the youngest overlapping older store covers the load
	// fully; Data holds the bytes.
	FwdHit
	// FwdConflict: a partial overlap or an older store with an
	// ungenerated address blocks the load; retry later.
	FwdConflict
)

// Search performs the associative store-to-load forwarding lookup for a
// load at loadSeq (AllOlder for the TSOB). Only stores older than the
// load participate. An older store whose address is not yet known
// conservatively blocks the load (no memory speculation).
func (sb *StoreBuffer) Search(loadSeq, addr uint64, size uint8) (ForwardResult, [8]byte) {
	var zero [8]byte
	if sb.unexec != sb.head+uint64(sb.count) && sb.entries[sb.unexec&sb.mask].Seq < loadSeq {
		// An older store's address is unknown: conservative conflict.
		return FwdConflict, zero
	}
	if sb.lineCount[sb.bucket(addr)] == 0 {
		// No buffered store is on the load's line.
		return FwdMiss, zero
	}
	want := memsys.MaskFor(addr, size)
	line := addr &^ 63
	// Every store older than the load is executed, so only same-line
	// entries can decide the result. Scan youngest -> oldest.
	for i := sb.count - 1; i >= 0; i-- {
		e := sb.at(i)
		if e.Seq >= loadSeq || e.Line() != line {
			continue
		}
		m := e.Mask()
		if !m.Overlaps(want) {
			continue
		}
		if !m.Covers(want) {
			return FwdConflict, zero
		}
		// Full cover: extract the requested bytes from the store data.
		var out [8]byte
		off := int(addr&63) - int(e.Addr&63)
		copy(out[:size], e.Data[off:off+int(size)])
		return FwdHit, out
	}
	return FwdMiss, zero
}

// LookaheadLines visits up to k distinct line addresses of the oldest
// committed stores (drain-ahead RFO issue).
func (sb *StoreBuffer) LookaheadLines(k int, visit func(line uint64)) {
	var last uint64 = ^uint64(0)
	seen := 0
	for i := 0; i < sb.count && seen < k; i++ {
		e := sb.at(i)
		if !e.Committed {
			break
		}
		ln := e.Line()
		if ln == last {
			continue
		}
		last = ln
		seen++
		visit(ln)
	}
}
