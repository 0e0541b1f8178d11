package main

import (
	"math"
	"testing"
)

// cannedTop is `go tool pprof -top` output of a traced st_loadheavy run,
// trimmed to a few rows (the header total is adjusted to match).
const cannedTop = `File: perfbench
Build ID: ff236c0538d7e708702fad7849fcf0ca8e3a5674
Type: cpu
Time: 2026-10-17 07:19:43 UTC
Duration: 12.88s, Total samples = 10s (77.64%)
Showing nodes accounting for 10s, 100% of 10s total
      flat  flat%   sum%        cum   cum%
     2.54s 25.40% 25.40%      7.08s 70.80%  tusim/internal/cpu.(*Core).tryLoad (inline)
     2.39s 23.90% 49.30%      9.68s 96.80%  tusim/internal/cpu.(*Core).issue
     1.82s 18.20% 67.50%      2.86s 28.60%  tusim/internal/cpu.(*StoreBuffer).Search
     0.53s  5.30% 72.80%      1.44s 14.40%  tusim/internal/memsys.(*Private).load (inline)
     0.40s  4.00% 76.80%      0.49s  4.90%  tusim/internal/lmap.(*Map[go.shape.struct { tusim/internal/memsys.line uint64; tusim/internal/memsys.loads []tusim/internal/memsys.loadWait; tusim/internal/memsys.writeCbs []func(bool) }]).Get (inline)
     0.16s  1.60% 78.40%      0.21s  2.10%  tusim/internal/stats.(*Histogram).Observe (partial-inline)
     0.12s  1.20% 79.60%      0.12s  1.20%  runtime.memclrNoHeapPointers
     1.03s 10.30% 89.90%      1.03s 10.30%  internal/runtime/maps.(*Map).getWithKeySmall
    0.50s  5.00% 94.90%      0.60s  6.00%  tusim/internal/mech.(*SSB).Forward
    300ms  3.00% 97.90%     300ms  3.00%  tusim/internal/cpu.(*StoreBuffer).Search
    0.07s  0.70% 98.60%      0.07s  0.70%  internal/sync.(*Mutex).Unlock (inline)
    0.07s  0.70% 99.30%      0.07s  0.70%  main.timedStream.Next
    0.07s  0.70%   100%      0.50s  5.00%  tusim/internal/event.(*Queue).fireCycle (inline)
         0     0%   100%      9.90s 99.00%  runtime.main
`

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestParseTop(t *testing.T) {
	rep, err := parseTop(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	if rep.total != 10 || len(rep.rows) != 14 {
		t.Fatalf("total %v rows %d", rep.total, len(rep.rows))
	}
	r := rep.rows[4]
	if !near(r.flat, 0.40) || !near(r.cum, 0.49) || layer(r.name) != "lmap" {
		t.Errorf("generic row parsed as %+v (layer %s)", r, layer(r.name))
	}
	if rep.rows[0].name != "tusim/internal/cpu.(*Core).tryLoad" || rep.rows[5].name != "tusim/internal/stats.(*Histogram).Observe" {
		t.Errorf("inline markers kept: %q, %q", rep.rows[0].name, rep.rows[5].name)
	}
	if r := rep.rows[9]; !near(r.flat, 0.3) || !near(r.cum, 0.3) {
		t.Errorf("ms row parsed as %+v", r)
	}
}

func TestLayerShares(t *testing.T) {
	rep, err := parseTop(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	shares, covered := layerShares(rep)
	if !near(covered, 100) {
		t.Fatalf("shares cover %v%%, want 100%%", covered)
	}
	want := map[string]float64{
		"cpu": 25.4 + 23.9 + 18.2 + 3, "memsys": 5.3, "lmap": 4, "stats": 1.6,
		"runtime": 1.2 + 10.3, "mech": 5, "other": 0.7, "bench": 0.7, "event": 0.7,
	}
	for k, v := range want {
		if !near(shares[k], v) {
			t.Errorf("%s share %v, want %v", k, shares[k], v)
		}
	}
	if len(shares) != len(want) {
		t.Errorf("buckets %v", shares)
	}
	if got := cumPct(rep, "tusim/internal/cpu.(*StoreBuffer).Search"); !near(got, 28.6+3) {
		t.Errorf("Search cum %v%%", got)
	}
}

func TestParseTopRejectsGarbage(t *testing.T) {
	if _, err := parseTop("no header here\n"); err == nil {
		t.Error("parsed output without a header")
	}
	bad := "Showing nodes accounting for 1s, 100% of 1s total\n      flat  flat%   sum%        cum   cum%\n   1q 100% 100% 1s 100%  f\n"
	if _, err := parseTop(bad); err == nil {
		t.Error("parsed a row with an unknown unit")
	}
}

func TestParseDur(t *testing.T) {
	for in, want := range map[string]float64{"0": 0, "10ms": 0.01, "1.25s": 1.25, "2.5mins": 150, "3us": 3e-6, "7ns": 7e-9, "1hrs": 3600} {
		if got, err := parseDur(in); err != nil || !near(got, want) {
			t.Errorf("parseDur(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}

func TestLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"tusim/internal/mech.(*SSB).Forward":           "mech",
		"tusim/internal/tus.(*TUS).Tick":               "tus",
		"tusim/internal/cpu.(*Core).Tick.func1":        "cpu",
		"runtime.mallocgc":                             "runtime",
		"runtime/internal/atomic.Load":                 "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"main.(*timedMech).Tick":                       "bench",
		"time.Now":                                     "other",
		"sync.(*Mutex).Lock":                           "other",
		"tusim/internal/lmap.hash":                     "lmap",
		"tusim/internal/event.(*Queue).fireCycle":      "event",
		"tusim/internal/harness.(*Runner).simulate":    "harness",
	} {
		if got := layer(fn); got != want {
			t.Errorf("layer(%q) = %s, want %s", fn, got, want)
		}
	}
}
