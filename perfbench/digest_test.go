package main

import (
	"math"
	"path/filepath"
	"testing"

	"tusim/internal/config"
	"tusim/internal/energy"
	"tusim/internal/harness"
	"tusim/internal/stats"
)

func sampleResult() harness.Result {
	st := stats.NewSet("total")
	st.Counter("committed_ops").Add(100_000)
	st.Counter("sb_searches").Add(31_337)
	st.Counter("tsob_searches").Add(4_242)
	st.Histogram("store_latency").Observe(17)
	return harness.Result{
		Bench: "505.mcf", Mech: config.SSB, SB: 64, Cores: 1, Cycles: 123_456, Stats: st,
		Energy: energy.Breakdown{Core: 1.5, SB: 0.25, TSOB: 1e-9, DRAM: 3},
		EDP:    42.125,
	}
}

func TestDigestStable(t *testing.T) {
	a, b := digest(sampleResult()), digest(sampleResult())
	if err := compareDigest(a, b); err != nil {
		t.Fatalf("identical results differ: %v", err)
	}
	if a.Cycles != 123_456 || len(a.SHA256) != 64 {
		t.Fatalf("digest = %+v", a)
	}
}

func TestDigestFlippedCounterFails(t *testing.T) {
	want := digest(sampleResult())
	r := sampleResult()
	r.Stats.Counter("tsob_searches").Inc()
	got := digest(r)
	if got.Cycles != want.Cycles {
		t.Fatalf("a counter flip moved cycles")
	}
	if err := compareDigest(want, got); err == nil {
		t.Fatal("a flipped counter passed the digest comparison")
	}
}

func TestDigestCatchesEveryField(t *testing.T) {
	want := digest(sampleResult())
	for name, mutate := range map[string]func(*harness.Result){
		"cycles":    func(r *harness.Result) { r.Cycles++ },
		"new stat":  func(r *harness.Result) { r.Stats.Counter("extra").Inc() },
		"histogram": func(r *harness.Result) { r.Stats.Histogram("store_latency").Observe(1) },
		"energy":    func(r *harness.Result) { r.Energy.TSOB = math.Nextafter(r.Energy.TSOB, 1) },
		"edp":       func(r *harness.Result) { r.EDP = math.Nextafter(r.EDP, 0) },
	} {
		r := sampleResult()
		mutate(&r)
		if err := compareDigest(want, digest(r)); err == nil {
			t.Errorf("%s change passed the digest comparison", name)
		}
	}
}

func TestDigestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := &digestFile{Workload: "w", Seed: 7, Cells: map[string]cellDigest{"505.mcf/SSB/64": digest(sampleResult())}}
	if err := writeDigests(dir, f); err != nil {
		t.Fatal(err)
	}
	got, err := loadDigests(dir, "w", 7)
	if err != nil || got == nil {
		t.Fatalf("load: %v %v", got, err)
	}
	if err := compareDigest(f.Cells["505.mcf/SSB/64"], got.Cells["505.mcf/SSB/64"]); err != nil {
		t.Fatal(err)
	}
	if missing, err := loadDigests(dir, "w", 8); missing != nil || err != nil {
		t.Fatalf("uncommitted seed: %v %v", missing, err)
	}
	if filepath.Base(digestPath(dir, "w", 7)) != "w.seed7.json" {
		t.Fatalf("digest path %s", digestPath(dir, "w", 7))
	}
}

func TestCheckerFailsOnMismatch(t *testing.T) {
	res := map[string]harness.Result{"505.mcf/SSB/64": sampleResult()}
	ref := &digestFile{Cells: map[string]cellDigest{"505.mcf/SSB/64": digest(sampleResult())}}

	ok := &checker{ref: ref}
	ok.check("pass 1", res)
	if len(ok.mismatches) != 0 {
		t.Fatalf("matching results flagged: %v", ok.mismatches)
	}

	flipped := sampleResult()
	flipped.Stats.Counter("sb_searches").Inc()
	bad := &checker{ref: ref}
	bad.check("pass 1", map[string]harness.Result{"505.mcf/SSB/64": flipped})
	if len(bad.mismatches) != 1 {
		t.Fatalf("flipped counter: mismatches %v", bad.mismatches)
	}

	// Without committed digests, later passes are held to the first.
	rep := &checker{}
	rep.check("pass 1", res)
	rep.check("pass 2", map[string]harness.Result{"505.mcf/SSB/64": flipped})
	if len(rep.mismatches) != 1 {
		t.Fatalf("run-to-run change: mismatches %v", rep.mismatches)
	}
}
