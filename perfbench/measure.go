package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"tusim/internal/config"
	"tusim/internal/harness"
	"tusim/internal/isa"
	"tusim/internal/supervise"
	"tusim/internal/system"
	"tusim/internal/workload"
)

// pass is one untraced run of a workload's cell list through the path
// users take: a fresh harness.Runner, Prefetch, then Run per cell.
type pass struct {
	wall, cpu   float64 // seconds of Prefetch: wall clock, process user+sys
	allocMB     float64 // runtime.MemStats.TotalAlloc delta
	mallocs     uint64  // runtime.MemStats.Mallocs delta
	gcCycles    uint64
	gcPause     time.Duration
	cycles      uint64    // Σ Result.Cycles
	ops         uint64    // Σ simulated micro-ops (ops × threads)
	cellSecs    []float64 // per-cell host seconds from OnCellDone, in cell order
	cellKeys    []string
	cellMT      []bool // the supervisor's "mt" deadline class (multi-thread bench)
	results     map[string]harness.Result
	failures    map[string]string // cell key -> reason (error or quarantine)
	retries     int
	quarantined map[string]string
	degraded    int
}

// runPass simulates cells once, wired like cmd/tusbench with one
// worker and no disk cache, under newSupervisor's policy.
func runPass(cells []harness.Cell, seed int64) pass {
	r := harness.NewRunner()
	r.Ops, r.ParallelOps, r.Seed, r.Workers = paperOps, paperParallelOps, seed, 1
	r.Supervisor = newSupervisor()
	var mu sync.Mutex
	durs := map[string]time.Duration{}
	r.OnCellDone = func(key string, _ bool, d time.Duration, _ error) {
		mu.Lock()
		durs[key] = d
		mu.Unlock()
	}

	// Start every pass from a collected heap, so one pass's garbage is
	// not collected on the next pass's time.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	// Prefetch's error is the first failing cell's; Run below reports
	// every cell's own outcome.
	_ = r.Prefetch(cells)
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)

	p := pass{
		wall:     wall,
		cpu:      cpu,
		allocMB:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
		mallocs:  ms1.Mallocs - ms0.Mallocs,
		gcCycles: uint64(ms1.NumGC - ms0.NumGC),
		gcPause:  time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs),
		results:  map[string]harness.Result{},
		failures: map[string]string{},
	}
	for _, c := range cells {
		key := cellKey(c)
		res, err := r.Run(c.Bench, c.Mech, c.SB)
		if err != nil {
			p.failures[key] = err.Error()
			continue
		}
		p.results[key] = res
		p.cycles += res.Cycles
		p.ops += simOps(c)
	}
	mu.Lock()
	for _, c := range cells {
		if d, ok := durs[cellKey(c)]; ok {
			p.cellSecs = append(p.cellSecs, d.Seconds())
			p.cellKeys = append(p.cellKeys, cellKey(c))
			p.cellMT = append(p.cellMT, c.Bench.Threads > 1)
		}
	}
	mu.Unlock()
	p.retries = r.Supervisor.Retries()
	p.quarantined = r.Supervisor.QuarantinedCells()
	p.degraded = len(r.DegradedCells())
	return p
}

// newSupervisor is harness.NewSupervisor(config.Default().CellTimeout),
// the policy cmd/tusbench installs, with one change: every cell gets
// the uncalibrated CellTimeout deadline. harness.NewSupervisor derives
// deadlines from wall-clock times of earlier cells (8x the slowest, at
// least 2 s), and 505.mcf/SSB/64 in st_forward runs at 0.97-1.6x of
// that deadline, so on a shared host it is quarantined in some passes
// and not others. That would make cells failed depend on host noise
// rather than on the simulator. Panics, crash classification and
// retries are unchanged, and deadlineMargin still reports how close
// each pass came to the calibrated deadline.
func newSupervisor() *supervise.Supervisor {
	timeout := config.Default().CellTimeout
	return supervise.New(supervise.Policy{
		MaxRetries:  2,
		Fallback:    timeout,
		MinDeadline: timeout,
		Transient: func(err error) bool {
			var cr *system.CrashReport
			return errors.As(err, &cr) && cr.Transient()
		},
		WrapPanic: func(key string, v any, stack []byte) error {
			return fmt.Errorf("harness: %s: %w", key, system.PanicReport(v, stack))
		},
		Warnf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
}

// cellSum is Σ per-cell host seconds of the pass.
func (p pass) cellSum() float64 {
	var s float64
	for _, d := range p.cellSecs {
		s += d
	}
	return s
}

// slowest renders the n slowest cells of the pass, slowest first.
func (p pass) slowest(n int) string {
	idx := make([]int, len(p.cellSecs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return p.cellSecs[idx[a]] > p.cellSecs[idx[b]] })
	var parts []string
	for _, i := range idx[:min(n, len(idx))] {
		parts = append(parts, fmt.Sprintf("%s %.3fs", p.cellKeys[i], p.cellSecs[i]))
	}
	return strings.Join(parts, ", ")
}

// deadlineMargin estimates how close the pass came to a deadline miss
// under harness.NewSupervisor's calibrated policy (not the policy the
// pass ran under; see newSupervisor). A cell's calibrated deadline is
// DefaultDeadlineFactor times the slowest earlier cell of its class,
// floored at DefaultMinDeadline; the margin is that deadline over the
// cell's own time, minimized over the pass. Below 1 that policy would
// retry the cell, then quarantine it. ok is false when no cell had an
// earlier cell of its class.
func (p pass) deadlineMargin() (margin float64, key string, ok bool) {
	slowest := map[bool]float64{}
	for i, d := range p.cellSecs {
		mt := p.cellMT[i]
		if prev, seen := slowest[mt]; seen && d > 0 {
			deadline := max(supervise.DefaultDeadlineFactor*prev, supervise.DefaultMinDeadline.Seconds())
			if m := deadline / d; !ok || m < margin {
				margin, key, ok = m, p.cellKeys[i], true
			}
		}
		slowest[mt] = max(slowest[mt], d)
	}
	return margin, key, ok
}

// quarantineList renders the quarantined cells sorted by key.
func (p pass) quarantineList() []string {
	var out []string
	for k, why := range p.quarantined {
		out = append(out, k+": "+why)
	}
	sort.Strings(out)
	return out
}

// setup times the work a run does before simulating: generating each
// distinct trace (once per bench, as the harness's trace interner
// does) and building every cell's system.
func setup(cells []harness.Cell, seed int64) (float64, error) {
	t0 := time.Now()
	traces := map[string][][]isa.MicroOp{}
	for _, c := range cells {
		tr, ok := traces[c.Bench.Name]
		if !ok {
			tr = c.Bench.Generate(seed, opsFor(c.Bench))
			traces[c.Bench.Name] = tr
		}
		if _, err := system.New(cellConfig(c), sliceStreams(tr)); err != nil {
			return 0, fmt.Errorf("setup %s: %w", cellKey(c), err)
		}
	}
	return time.Since(t0).Seconds(), nil
}

// cellConfig is the configuration the harness simulates a cell under.
func cellConfig(c harness.Cell) *config.Config {
	return config.Default().WithMechanism(c.Mech).WithSB(c.SB).WithCores(c.Bench.Threads)
}

func sliceStreams(traces [][]isa.MicroOp) []isa.Stream {
	out := make([]isa.Stream, len(traces))
	for i, tr := range traces {
		out[i] = isa.NewSliceStream(tr)
	}
	return out
}

// warmupOps mirrors the harness: the first third of committed ops is
// warm-up.
func warmupOps(b workload.Benchmark) uint64 {
	return uint64(opsFor(b)) * uint64(b.Threads) / 3
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// maxRSSMB is the process's peak resident set size so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
