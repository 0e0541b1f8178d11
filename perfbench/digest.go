package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"tusim/internal/harness"
)

// cellDigest is a cell's output identity: its cycle count in the clear
// plus a SHA-256 over cycles, every counter and histogram of the
// merged stats set (sorted by name), the energy breakdown and EDP.
type cellDigest struct {
	Cycles uint64 `json:"cycles"`
	SHA256 string `json:"sha256"`
}

// digest canonicalizes r and hashes it. Floats print with the shortest
// exact representation, so any bit change alters the digest.
func digest(r harness.Result) cellDigest {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d\n", r.Cycles)
	snap := r.Stats.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "c:%s=%d\n", k, snap[k])
	}
	hists := r.Stats.HistSnapshots()
	names = names[:0]
	for k := range hists {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := hists[k]
		fmt.Fprintf(&b, "h:%s=%d,%d,%d,%v\n", k, h.Count, h.Sum, h.Max, h.Buckets)
	}
	e := r.Energy
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Core", e.Core}, {"SB", e.SB}, {"WOQ", e.WOQ}, {"WCB", e.WCB}, {"TSOB", e.TSOB},
		{"L1D", e.L1D}, {"L2", e.L2}, {"LLC", e.LLC}, {"DRAM", e.DRAM}, {"Leakage", e.Leakage},
		{"EDP", r.EDP},
	} {
		fmt.Fprintf(&b, "e:%s=%s\n", f.name, strconv.FormatFloat(f.v, 'g', -1, 64))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return cellDigest{Cycles: r.Cycles, SHA256: hex.EncodeToString(sum[:])}
}

// compareDigest reports how got differs from want, or nil.
func compareDigest(want, got cellDigest) error {
	switch {
	case want.Cycles != got.Cycles:
		return fmt.Errorf("cycles %d, want %d", got.Cycles, want.Cycles)
	case want.SHA256 != got.SHA256:
		return fmt.Errorf("stats/energy digest %.12s, want %.12s", got.SHA256, want.SHA256)
	}
	return nil
}

// digestFile is the committed reference for one (workload, seed).
type digestFile struct {
	Workload    string                `json:"workload"`
	Seed        int64                 `json:"seed"`
	Ops         int                   `json:"ops"`
	ParallelOps int                   `json:"parallel_ops"`
	Harness     string                `json:"harness_version"`
	Cells       map[string]cellDigest `json:"cells"`
}

func digestPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s.seed%d.json", workload, seed))
}

// loadDigests returns the committed reference for (workload, seed), or
// nil when none is committed for that seed.
func loadDigests(dir, workload string, seed int64) (*digestFile, error) {
	data, err := os.ReadFile(digestPath(dir, workload, seed))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var f digestFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", digestPath(dir, workload, seed), err)
	}
	return &f, nil
}

func writeDigests(dir string, f *digestFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(digestPath(dir, f.Workload, f.Seed), append(data, '\n'), 0o644)
}
