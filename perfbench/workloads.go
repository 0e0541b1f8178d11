package main

import (
	"fmt"

	"tusim/internal/config"
	"tusim/internal/harness"
	"tusim/internal/workload"
)

// Paper scale: the trace lengths harness.NewRunner uses and the
// EXPERIMENTS.md regeneration publishes.
const (
	paperOps         = 150_000
	paperParallelOps = 25_000
)

// spec is one benchmark workload: a fixed (bench × mech × SB) cell
// list. NOTES.md records why each exists and which layers it drives.
type spec struct {
	name    string
	benches []string
	mechs   []config.Mechanism
	sbs     []int
}

var workloads = []spec{
	{
		name: "st_forward",
		benches: []string{"502.gcc1", "502.gcc2", "502.gcc3", "502.gcc4", "502.gcc5",
			"505.mcf", "520.omnetpp", "557.xz", "tf.matmul", "tf.conv", "tf.embed"},
		mechs: []config.Mechanism{config.Baseline, config.SSB, config.TUS},
		sbs:   []int{32, 64},
	},
	{
		name:    "st_loadheavy",
		benches: []string{"503.bw2", "507.cactuBSSN", "523.xalancbmk"},
		mechs:   []config.Mechanism{config.Baseline, config.CSB, config.SPB, config.TUS},
		sbs:     []int{32, 114},
	},
	{
		name: "mt_coherence",
		benches: []string{"dedup", "ferret", "streamcluster", "canneal",
			"fluidanimate", "blackscholes", "swaptions"},
		mechs: []config.Mechanism{config.Baseline, config.CSB, config.SPB, config.TUS},
		sbs:   []int{114},
	},
}

func lookup(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// cells expands the workload in the harness's fig8 order: bench-major,
// then SB size, then config.Mechanisms order.
func (w spec) cells() ([]harness.Cell, error) {
	var out []harness.Cell
	for _, name := range w.benches {
		b, ok := workload.ByName(name)
		if !ok {
			return nil, fmt.Errorf("workload %s: unknown bench %q", w.name, name)
		}
		for _, sb := range w.sbs {
			for _, m := range config.Mechanisms {
				if w.has(m) {
					out = append(out, harness.Cell{Bench: b, Mech: m, SB: sb})
				}
			}
		}
	}
	return out, nil
}

func (w spec) has(m config.Mechanism) bool {
	for _, x := range w.mechs {
		if x == m {
			return true
		}
	}
	return false
}

// cellKey is the harness's key for a cell ("bench/mech/sb").
func cellKey(c harness.Cell) string {
	return fmt.Sprintf("%s/%v/%d", c.Bench.Name, c.Mech, c.SB)
}

// opsFor is the per-thread trace length the harness gives a bench.
func opsFor(b workload.Benchmark) int {
	if b.Threads > 1 {
		return paperParallelOps
	}
	return paperOps
}

// simOps is the number of micro-ops a cell simulates (all threads).
func simOps(c harness.Cell) uint64 {
	return uint64(opsFor(c.Bench)) * uint64(c.Bench.Threads)
}
