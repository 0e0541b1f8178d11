package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"tusim/internal/config"
	"tusim/internal/cpu"
	"tusim/internal/energy"
	"tusim/internal/harness"
	"tusim/internal/isa"
	"tusim/internal/system"
)

// mechTimes accumulates one drain-mechanism layer's decorator counts.
// Cells run one at a time on one goroutine, so plain fields suffice.
type mechTimes struct {
	tickCalls, forwardCalls, forwardHits uint64
	tick, forward                        time.Duration
}

// timedMech observes a cpu.DrainMechanism: it times Tick and Forward
// and counts forwarding hits, passing every call through unchanged.
type timedMech struct {
	inner cpu.DrainMechanism
	t     *mechTimes
}

func (m *timedMech) Name() string { return m.inner.Name() }

func (m *timedMech) Tick() {
	t0 := time.Now()
	m.inner.Tick()
	m.t.tick += time.Since(t0)
	m.t.tickCalls++
}

func (m *timedMech) Forward(addr uint64, size uint8) (cpu.ForwardResult, [8]byte) {
	t0 := time.Now()
	res, data := m.inner.Forward(addr, size)
	m.t.forward += time.Since(t0)
	m.t.forwardCalls++
	if res == cpu.FwdHit {
		m.t.forwardHits++
	}
	return res, data
}

func (m *timedMech) Drained() bool   { return m.inner.Drained() }
func (m *timedMech) FlushDone() bool { return m.inner.FlushDone() }

// timedStream observes an isa.Stream, timing every Next.
type timedStream struct {
	inner isa.Stream
	calls *uint64
	spent *time.Duration
}

func (s timedStream) Next() (isa.MicroOp, bool) {
	t0 := time.Now()
	op, ok := s.inner.Next()
	*s.spent += time.Since(t0)
	*s.calls++
	return op, ok
}

// layerPass is one direct-layer run of a cell list. It mirrors
// harness.simulate step by step with each step timed, and wraps every
// isa stream and drain mechanism in the timing observers above.
type layerPass struct {
	generate, build, run, statsSum, energyModel time.Duration
	traces                                      int
	simCycles                                   uint64 // Σ event-queue clock at run end (warm-up included)
	nextCalls                                   uint64
	next                                        time.Duration
	mech, tus                                   mechTimes
	results                                     map[string]harness.Result
	failures                                    map[string]string
}

func runLayers(cells []harness.Cell, seed int64) layerPass {
	p := layerPass{results: map[string]harness.Result{}, failures: map[string]string{}}
	traces := map[string][][]isa.MicroOp{}
	for _, c := range cells {
		key := cellKey(c)
		tr, ok := traces[c.Bench.Name]
		if !ok {
			t0 := time.Now()
			tr = c.Bench.Generate(seed, opsFor(c.Bench))
			p.generate += time.Since(t0)
			p.traces += len(tr)
			traces[c.Bench.Name] = tr
		}
		streams := sliceStreams(tr)
		for i, s := range streams {
			streams[i] = timedStream{inner: s, calls: &p.nextCalls, spent: &p.next}
		}
		cfg := cellConfig(c)
		t0 := time.Now()
		sys, err := system.New(cfg, streams)
		p.build += time.Since(t0)
		if err != nil {
			p.failures[key] = err.Error()
			continue
		}
		sys.WarmupOps = warmupOps(c.Bench)
		t := &p.mech
		if c.Mech == config.TUS {
			t = &p.tus
		}
		for i, core := range sys.Cores {
			core.SetMechanism(&timedMech{inner: sys.Mechs[i], t: t})
		}
		t0 = time.Now()
		err = sys.Run()
		p.run += time.Since(t0)
		if err != nil {
			p.failures[key] = err.Error()
			continue
		}
		p.simCycles += sys.Q.Now()
		t0 = time.Now()
		st := sys.StatsSum()
		p.statsSum += time.Since(t0)
		t0 = time.Now()
		model := energy.New(cfg)
		res := harness.Result{
			Bench:  c.Bench.Name,
			Mech:   c.Mech,
			SB:     c.SB,
			Cores:  cfg.Cores,
			Cycles: sys.Cycles,
			Stats:  st,
			Energy: model.Energy(st, sys.Cycles),
			EDP:    model.EDP(st, sys.Cycles),
		}
		p.energyModel += time.Since(t0)
		p.results[key] = res
	}
	return p
}

// counterSum adds counter name over the results of cells whose
// mechanism satisfies pick.
func counterSum(results map[string]harness.Result, pick func(config.Mechanism) bool, names ...string) uint64 {
	var n uint64
	for _, r := range results {
		if !pick(r.Mech) {
			continue
		}
		for _, name := range names {
			n += r.Stats.Get(name)
		}
	}
	return n
}

func anyMech(config.Mechanism) bool  { return true }
func isTUS(m config.Mechanism) bool  { return m == config.TUS }
func notTUS(m config.Mechanism) bool { return m != config.TUS }
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (t mechTimes) String() string {
	return fmt.Sprintf("tick %d calls %.3fs, forward %d calls %.3fs hit %.4f",
		t.tickCalls, t.tick.Seconds(), t.forwardCalls, t.forward.Seconds(), ratio(t.forwardHits, t.forwardCalls))
}

// traced is the --trace 1 run. An untraced runner pass, the path users
// take, runs under the CPU profile: it gives the reference results, the
// harness and supervision figures and the package shares. A decorated
// direct-layer pass over the same cells then times each layer; it must
// reproduce the runner's results exactly.
func traced(o options, w spec, cells []harness.Cell, ck *checker) (result, error) {
	res := result{Metrics: map[string]metric{}}
	profPath := filepath.Join(buildDir, fmt.Sprintf("%s.seed%d.pprof", w.name, o.seed))
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return res, err
	}
	f, err := os.Create(profPath)
	if err != nil {
		return res, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return res, err
	}
	rp := runPass(cells, o.seed)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return res, err
	}
	ck.check("runner pass", rp.results)
	reportPass(1, rp)

	dec := runLayers(cells, o.seed)
	ck.check("decorated pass", dec.results)
	res.Attempted = 2 * len(cells)
	res.Failed = len(rp.failures) + len(dec.failures)
	for k, why := range dec.failures {
		fmt.Printf("  decorated pass failed %s: %s\n", k, why)
	}

	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	text, err := pprofTop(exe, profPath)
	if err != nil {
		return res, err
	}
	top, err := parseTop(text)
	if err != nil {
		return res, err
	}
	shares, covered := layerShares(top)
	fmt.Printf("profile %s: %.2fs of samples, layer shares sum to %.2f%%\n", profPath, top.total, covered)
	if covered < 99.5 || covered > 100.5 {
		return res, fmt.Errorf("profile layer shares sum to %.2f%%, want 100%%", covered)
	}
	printShares(shares)

	m := res.Metrics
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	putCount := func(name string, v uint64) { put(name, float64(v), "count") }

	untracedRun := rp.cellSum()
	put("harness.gap_s", rp.wall-untracedRun, "s")
	putCount("supervise.retries", uint64(rp.retries))
	putCount("supervise.quarantined", uint64(len(rp.quarantined)))
	margin, _, _ := rp.deadlineMargin()
	put("supervise.deadline_margin", margin, "ratio")
	putCount("runtime.mallocs", rp.mallocs)
	putCount("runtime.gc_cycles", rp.gcCycles)
	put("runtime.gc_pause_s", rp.gcPause.Seconds(), "s")
	for _, l := range []string{"cpu", "mech", "tus", "wcb", "memsys", "lmap", "event", "stats", "runtime"} {
		put(l+".self_pct", shares[l], "%")
	}
	put("cpu.sb_search_pct", cumPct(top, "tusim/internal/cpu.(*StoreBuffer).Search"), "%")

	put("workload.generate_s", dec.generate.Seconds(), "s")
	putCount("workload.traces", uint64(dec.traces))
	put("system.new_s", dec.build.Seconds(), "s")
	put("system.run_s", untracedRun, "s")
	put("system.ns_per_cycle", 1e9*untracedRun/float64(dec.simCycles), "ns")
	putCount("event.sim_cycles", dec.simCycles)
	put("stats.sum_s", dec.statsSum.Seconds(), "s")
	put("energy.model_s", dec.energyModel.Seconds(), "s")
	putCount("isa.next_calls", dec.nextCalls)
	put("isa.next_s", dec.next.Seconds(), "s")
	for _, l := range []struct {
		name string
		t    mechTimes
	}{{"mech", dec.mech}, {"tus", dec.tus}} {
		putCount(l.name+".tick_calls", l.t.tickCalls)
		put(l.name+".tick_s", l.t.tick.Seconds(), "s")
		putCount(l.name+".forward_calls", l.t.forwardCalls)
		put(l.name+".forward_s", l.t.forward.Seconds(), "s")
		put(l.name+".forward_hit_ratio", ratio(l.t.forwardHits, l.t.forwardCalls), "ratio")
		fmt.Printf("decorator %s: %v\n", l.name, l.t)
	}

	r := dec.results
	putCount("mech.tsob_searches", counterSum(r, notTUS, "tsob_searches"))
	putCount("mech.stores_drained", counterSum(r, notTUS, "stores_drained"))
	putCount("mech.drain_blocked_cycles", counterSum(r, notTUS, "drain_blocked_cycles"))
	putCount("tus.woq_searches", counterSum(r, isTUS, "woq_searches"))
	putCount("tus.lines_made_visible", counterSum(r, isTUS, "tus_lines_made_visible"))
	putCount("cpu.committed_ops", counterSum(r, anyMech, "committed_ops"))
	putCount("cpu.sb_searches", counterSum(r, anyMech, "sb_searches"))
	put("cpu.sb_forward_hit_ratio", ratio(counterSum(r, anyMech, "sb_forward_hits"), counterSum(r, anyMech, "sb_searches")), "ratio")
	putCount("cpu.stall_sb_cycles", counterSum(r, anyMech, "stall_sb"))
	putCount("wcb.searches", counterSum(r, anyMech, "wcb_searches"))
	putCount("memsys.l1d_reads", counterSum(r, anyMech, "l1d_reads"))
	put("memsys.l1d_hit_ratio", ratio(counterSum(r, anyMech, "l1d_hits"), counterSum(r, anyMech, "l1d_reads")), "ratio")
	putCount("memsys.l2_misses", counterSum(r, anyMech, "l2_misses"))
	putCount("memsys.llc_probes", counterSum(r, anyMech, "llc_probes"))
	putCount("memsys.dram_accesses", counterSum(r, anyMech, "dram_accesses"))
	putCount("memsys.nacks", counterSum(r, anyMech, "llc_nacks", "probe_nacks"))

	put("bench.trace_overhead_pct", 100*(dec.run.Seconds()-untracedRun)/untracedRun, "%")
	decShare := 100 * (dec.mech.tick + dec.mech.forward + dec.tus.tick + dec.tus.forward).Seconds() / dec.run.Seconds()
	put("bench.share_gap_pct", decShare-(shares["mech"]+shares["tus"]), "%")
	fmt.Printf("mech+tus: %.2f%% of decorated run time by decorator (callees included), %.2f%% of samples by profile (self)\n",
		decShare, shares["mech"]+shares["tus"])
	return res, nil
}
