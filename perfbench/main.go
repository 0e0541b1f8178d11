// Command perfbench measures the simulator at paper scale from outside,
// through its public entry points only. Each workload is a fixed list
// of (bench, mech, SB) cells; see NOTES.md for why each exists and how
// its metrics map onto the simulator's layers.
//
// Run from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench/run.sh --workload st_forward --seed 1 --seconds 60 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics of untraced runs; --trace 1 reports per-layer
// metrics from a profiled and decorated run over the same cells.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"tusim/internal/harness"
)

// Set at link time by run.sh.
var (
	gitCommit    = "unknown"
	sourceDigest = "unknown"
)

// heldOutSeed has committed digests like seed 1 but is not used while
// tuning changes against this benchmark.
const heldOutSeed = 4242

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Fixed settings. Paths are relative to the checkout root, where the
// benchmark runs.
const (
	digestDir = "perfbench/digests"
	buildDir  = ".bench_build"
	setupReps = 4 // set-up phases timed before each pass and after the last
	minPasses = 2 // untraced passes per run, whatever --seconds allows
)

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	writeDigests bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: st_forward, st_loadheavy or mt_coherence")
	flag.Int64Var(&o.seed, "seed", 1, "workload generator seed")
	flag.Float64Var(&o.seconds, "seconds", 60, "measurement budget in seconds (at least two passes always run)")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&o.writeDigests, "write-digests", false, "record this seed's cell digests instead of checking them")
	flag.Parse()
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	os.Exit(run(o))
}

func run(o options) int {
	w, err := lookup(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	cells, err := w.cells()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	printProvenance(o, len(cells))
	ref, err := loadDigests(digestDir, w.name, o.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ck := &checker{ref: ref}
	switch {
	case o.writeDigests:
		fmt.Println("check: recording digests, not checking")
	case ref != nil:
		fmt.Printf("check: every cell against committed digests %s\n", digestPath(digestDir, w.name, o.seed))
	default:
		fmt.Printf("check: no committed digests for seed %d (committed: 1, %d); checking only that results repeat within this run\n", o.seed, heldOutSeed)
	}

	var res result
	if o.trace == 1 {
		res, err = traced(o, w, cells, ck)
	} else {
		res, err = untraced(o, w, cells, ck)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, m := range ck.mismatches {
		fmt.Println("MISMATCH", m)
	}
	res.Correct = len(ck.mismatches) == 0
	res.Failed += len(ck.mismatches)
	fmt.Printf("cells attempted %d, failed %d\n", res.Attempted, res.Failed)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// checker compares cell results against the committed digests, or
// against the first result seen for the cell when none are committed.
type checker struct {
	ref        *digestFile
	first      map[string]cellDigest
	mismatches []string
}

func (c *checker) check(pass string, results map[string]harness.Result) {
	if c.first == nil {
		c.first = map[string]cellDigest{}
	}
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		got := digest(results[k])
		want, ok := c.first[k]
		what := "first result in this run"
		if c.ref != nil {
			want, ok = c.ref.Cells[k]
			what = "committed digest"
			if !ok {
				c.mismatches = append(c.mismatches, fmt.Sprintf("%s %s: no committed digest", pass, k))
				continue
			}
		}
		if !ok {
			c.first[k] = got
			continue
		}
		if err := compareDigest(want, got); err != nil {
			c.mismatches = append(c.mismatches, fmt.Sprintf("%s %s: %v (vs %s)", pass, k, err, what))
		}
	}
}

func untraced(o options, w spec, cells []harness.Cell, ck *checker) (result, error) {
	res := result{Metrics: map[string]metric{}}
	// setup_s is the median of set-up phases spread over the whole run,
	// so it samples the host at the same times as the passes do.
	var setups []float64
	timeSetups := func() error {
		for i := 0; i < setupReps; i++ {
			runtime.GC()
			s, err := setup(cells, o.seed)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
		return nil
	}

	start := time.Now()
	var passes []pass
	for {
		if err := timeSetups(); err != nil {
			return res, err
		}
		p := runPass(cells, o.seed)
		passes = append(passes, p)
		ck.check(fmt.Sprintf("pass %d", len(passes)), p.results)
		res.Attempted += len(cells)
		res.Failed += len(p.failures)
		reportPass(len(passes), p)
		// At least minPasses run, so one disturbed pass moves the median
		// by half at most; more run while another whole pass fits.
		if len(passes) >= minPasses && time.Since(start).Seconds()+p.wall > o.seconds {
			break
		}
	}
	if err := timeSetups(); err != nil {
		return res, err
	}
	fmt.Printf("setup: %d reps, seconds %s\n", len(setups), fmtList(setups))
	if o.writeDigests {
		if err := recordDigests(o, w, passes[0]); err != nil {
			return res, err
		}
	}

	var wall, cpu, cyc, ops, p50, tl, alloc []float64
	tailP := 0
	for _, p := range passes {
		wall = append(wall, p.wall)
		cpu = append(cpu, p.cpu)
		cyc = append(cyc, float64(p.cycles)/p.wall)
		ops = append(ops, float64(p.ops)/p.wall)
		p50 = append(p50, median(p.cellSecs))
		alloc = append(alloc, p.allocMB)
		if pct, v, ok := tail(p.cellSecs); ok {
			tl = append(tl, v)
			tailP = pct
		}
	}
	fmt.Printf("passes %d; cell_s_tail is p%d of %d cells (at least %d cells beyond it)\n",
		len(passes), tailP, len(cells), tailBeyond)
	m := res.Metrics
	m["wall_s"] = metric{median(wall), "s"}
	m["setup_s"] = metric{median(setups), "s"}
	m["cpu_s"] = metric{median(cpu), "s"}
	m["sim_cycles_per_s"] = metric{median(cyc), "1/s"}
	m["sim_ops_per_s"] = metric{median(ops), "1/s"}
	m["cell_s_p50"] = metric{median(p50), "s"}
	m["cell_s_tail"] = metric{median(tl), "s"}
	m["alloc_mb"] = metric{median(alloc), "MB"}
	m["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	return res, nil
}

func reportPass(n int, p pass) {
	fmt.Printf("pass %d: wall %.3fs cpu %.3fs cells %d cell-sum %.3fs alloc %.1fMB retries %d quarantined %d degraded %d failed %d\n",
		n, p.wall, p.cpu, len(p.cellSecs), p.cellSum(), p.allocMB, p.retries, len(p.quarantined), p.degraded, len(p.failures))
	fmt.Printf("  slowest cells: %s\n", p.slowest(3))
	if m, key, ok := p.deadlineMargin(); ok {
		fmt.Printf("  tightest calibrated deadline (harness.NewSupervisor): %s at %.2fx its time\n", key, m)
		if m < 1 {
			fmt.Println("  (below 1: cmd/tusbench's supervisor would have retried this cell)")
		}
	}
	for _, q := range p.quarantineList() {
		fmt.Println("  quarantined", q)
	}
	keys := make([]string, 0, len(p.failures))
	for k := range p.failures {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  failed %s: %s\n", k, p.failures[k])
	}
}

func recordDigests(o options, w spec, p pass) error {
	if len(p.failures) > 0 {
		return fmt.Errorf("not recording digests: %d cells failed", len(p.failures))
	}
	f := &digestFile{
		Workload: w.name, Seed: o.seed, Ops: paperOps, ParallelOps: paperParallelOps,
		Harness: harness.Version, Cells: map[string]cellDigest{},
	}
	for k, r := range p.results {
		f.Cells[k] = digest(r)
	}
	if err := writeDigests(digestDir, f); err != nil {
		return err
	}
	fmt.Printf("recorded %d cell digests in %s\n", len(f.Cells), digestPath(digestDir, w.name, o.seed))
	return nil
}

func printShares(shares map[string]float64) {
	names := make([]string, 0, len(shares))
	for k := range shares {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return shares[names[i]] > shares[names[j]] })
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, " %s %.2f%%", k, shares[k])
	}
	fmt.Printf("top layer: %s (%.2f%% of samples)\nlayer shares:%s\n", names[0], shares[names[0]], b.String())
}

func printProvenance(o options, ncells int) {
	pgo := "none"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-pgo" {
				pgo = s.Value
			}
		}
	}
	fmt.Printf("perfbench workload=%s cells=%d seed=%d seconds=%g trace=%d\n", o.workload, ncells, o.seed, o.seconds, o.trace)
	fmt.Printf("provenance: harness=%s go=%s GOMAXPROCS=%d NumCPU=%d pgo=%s git=%s source=%s ops=%d parallel_ops=%d workers=1\n",
		harness.Version, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), pgo, gitCommit, sourceDigest,
		paperOps, paperParallelOps)
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
