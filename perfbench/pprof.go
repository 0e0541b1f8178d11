package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// topRow is one function row of `go tool pprof -top`.
type topRow struct {
	flat, cum float64 // seconds
	name      string
}

// topReport is a parsed `go tool pprof -top` listing.
type topReport struct {
	total float64 // seconds of samples in the profile
	rows  []topRow
}

var (
	topRowRE   = regexp.MustCompile(`^\s*(\S+)\s+\S+%\s+\S+%\s+(\S+)\s+\S+%\s+(.+?)\s*$`)
	topTotalRE = regexp.MustCompile(`of (\S+) total`)
)

// pprofTop runs the local toolchain's pprof over a CPU profile with no
// node dropping, so every sample lands in some row.
func pprofTop(binary, profile string) (string, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", binary, profile)
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go tool pprof -top: %w", err)
	}
	return string(out), nil
}

// parseTop parses pprof's -top text output.
func parseTop(text string) (topReport, error) {
	var rep topReport
	sawHeader, sawTotal := false, false
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1<<20) // generic instantiations make long symbol names
	for sc.Scan() {
		line := sc.Text()
		if !sawHeader {
			if m := topTotalRE.FindStringSubmatch(line); m != nil && strings.HasPrefix(line, "Showing nodes") {
				t, err := parseDur(m[1])
				if err != nil {
					return rep, err
				}
				rep.total, sawTotal = t, true
			}
			if f := strings.Fields(line); len(f) == 5 && f[0] == "flat" && f[4] == "cum%" {
				sawHeader = true
			}
			continue
		}
		m := topRowRE.FindStringSubmatch(line)
		if m == nil {
			return rep, fmt.Errorf("pprof -top: unparsable row %q", line)
		}
		flat, err := parseDur(m[1])
		if err != nil {
			return rep, err
		}
		cum, err := parseDur(m[2])
		if err != nil {
			return rep, err
		}
		name := strings.TrimSuffix(strings.TrimSuffix(m[3], " (inline)"), " (partial-inline)")
		rep.rows = append(rep.rows, topRow{flat: flat, cum: cum, name: name})
	}
	if !sawHeader || !sawTotal {
		return rep, fmt.Errorf("pprof -top: no header or total line")
	}
	return rep, sc.Err()
}

// parseDur converts a pprof duration ("0", "10ms", "1.25s", "2.5mins")
// to seconds.
func parseDur(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("pprof duration %q: %w", s, err)
			}
			return v * u.scale, nil
		}
	}
	if s == "0" {
		return 0, nil
	}
	return 0, fmt.Errorf("pprof duration %q: unknown unit", s)
}

// layer buckets a symbol by the package that owns its code:
// "cpu", "mech", ... for tusim/internal/<pkg>; "runtime" for the Go
// runtime (including its internal/runtime/* helpers such as maps);
// "bench" for this benchmark's own code; "other" for everything else.
func layer(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "tusim/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return "other"
}

// layerShares buckets flat samples by layer as percentages of the
// profile total, and returns the share the rows account for (100 when
// no sample was dropped).
func layerShares(rep topReport) (map[string]float64, float64) {
	out := map[string]float64{}
	var sum float64
	if rep.total <= 0 {
		return out, 0
	}
	for _, r := range rep.rows {
		pct := 100 * r.flat / rep.total
		out[layer(r.name)] += pct
		sum += pct
	}
	return out, sum
}

// cumPct is the cumulative share of every row whose symbol equals fn.
func cumPct(rep topReport, fn string) float64 {
	if rep.total <= 0 {
		return 0
	}
	var cum float64
	for _, r := range rep.rows {
		if r.name == fn {
			cum += r.cum
		}
	}
	return 100 * cum / rep.total
}
