package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative = better).
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict judges one workload x end-to-end metric: unresolved when
// either side's windows leave its own median uncertain by more than
// the bound (the difference cannot be told from noise), regressed when
// b is worse than a by more than the bound, ok otherwise. The
// uncertainty of a median of n windows is taken as their inter-quartile
// range over sqrt(n): the windows' raw spread overstates it, and on
// fleet_single (backend plan caches still filling through closed)
// exceeds any bound on every run.
func verdict(def metricDef, a, b summary) string {
	uncertain := func(s summary) float64 {
		if s.Value == 0 || s.N == 0 {
			return 0
		}
		return s.Spread / math.Sqrt(float64(s.N)) / math.Abs(s.Value)
	}
	switch {
	case uncertain(a) > def.Bound || uncertain(b) > def.Bound:
		return "unresolved"
	case worsening(def, a.Value, b.Value) > def.Bound:
		return "regressed"
	}
	return "ok"
}

// compareFiles prints, per workload x end-to-end metric, both medians,
// both spreads, the relative difference, the bound and the verdict. It
// reports whether every row is ok.
func compareFiles(pathA, pathB string, w io.Writer) (bool, error) {
	a, err := readDocument(pathA)
	if err != nil {
		return false, err
	}
	b, err := readDocument(pathB)
	if err != nil {
		return false, err
	}
	byName := map[string]*result{}
	for _, r := range b.Workloads {
		byName[r.Workload] = r
	}
	fmt.Fprintf(w, "%-15s %-16s %12s %10s %12s %10s %9s %6s  %s\n",
		"workload", "metric", "a", "spread", "b", "spread", "worse_by", "bound", "verdict")
	allOK := true
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil {
			return false, fmt.Errorf("%s has no workload %s", pathB, ra.Workload)
		}
		for _, def := range endToEnd {
			sa, sb := ra.Metrics[def.Name], rb.Metrics[def.Name]
			v := verdict(def, sa, sb)
			allOK = allOK && v == "ok"
			fmt.Fprintf(w, "%-15s %-16s %12.4f %10.4f %12.4f %10.4f %+8.1f%% %5.0f%%  %s\n",
				ra.Workload, def.Name, sa.Value, sa.Spread, sb.Value, sb.Spread,
				100*worsening(def, sa.Value, sb.Value), 100*def.Bound, v)
		}
	}
	return allOK, nil
}
