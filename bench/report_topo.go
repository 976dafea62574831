package bench

import (
	"fmt"
	"strings"
)

// TopoSchema versions BENCH_topo.json; bump on incompatible change.
const TopoSchema = "topo/v1"

// TopoReport is the BENCH_topo.json document: one row per
// (topology, algorithm, size) cell of the sweep.
type TopoReport struct {
	Schema       string           `json:"schema"`
	Profile      string           `json:"profile"`
	Nodes        int              `json:"nodes"`
	RanksPerNode int              `json:"ranks_per_node"`
	Rows         []TopoCollResult `json:"rows"`
}

// Validate checks a report's structure and its headline claim. The
// structural checks are machine-independent; the performance assertion
// (hier beats ring for >= 1 MiB on any >= 2:1-oversubscribed fat-tree) is
// safe to enforce because virtual time is deterministic.
func (rep *TopoReport) Validate() error {
	if rep.Schema != TopoSchema {
		return fmt.Errorf("schema %q, want %q", rep.Schema, TopoSchema)
	}
	if rep.Profile == "" {
		return fmt.Errorf("missing profile")
	}
	if rep.Nodes < 2 || rep.RanksPerNode < 1 {
		return fmt.Errorf("bad cluster shape: %d nodes x %d ranks", rep.Nodes, rep.RanksPerNode)
	}
	if len(rep.Rows) == 0 {
		return fmt.Errorf("empty sweep")
	}
	mean := make(map[string]float64) // "topo|algo|bytes" → MeanNs
	for _, r := range rep.Rows {
		if r.Topo == "" || r.Bytes <= 0 || r.MeanNs <= 0 {
			return fmt.Errorf("bad row %+v", r)
		}
		switch r.Algo {
		case "ring", "hier", "auto":
		default:
			return fmt.Errorf("unknown algorithm %q", r.Algo)
		}
		if r.Topo == "flat" && (r.MaxLinkUtil != 0 || r.MaxLinkWaitNs != 0 || r.MaxQueue != 0) {
			return fmt.Errorf("flat row carries link contention: %+v", r)
		}
		mean[fmt.Sprintf("%s|%s|%d", r.Topo, r.Algo, r.Bytes)] = r.MeanNs
	}
	// Headline claim: on every swept fat-tree oversubscribed >= 2:1, the
	// hierarchical allreduce must beat the flat ring at >= 1 MiB.
	checked := 0
	for _, r := range rep.Rows {
		if r.Algo != "hier" || r.Bytes < 1<<20 || !oversubscribedFatTree(r.Topo) {
			continue
		}
		ring, ok := mean[fmt.Sprintf("%s|ring|%d", r.Topo, r.Bytes)]
		if !ok {
			return fmt.Errorf("no ring row to compare against %+v", r)
		}
		if r.MeanNs >= ring {
			return fmt.Errorf("hier (%.0f ns) not faster than ring (%.0f ns) on %s at %d bytes",
				r.MeanNs, ring, r.Topo, r.Bytes)
		}
		checked++
	}
	if checked == 0 {
		return fmt.Errorf("sweep has no >= 1 MiB hier rows on an oversubscribed fat-tree")
	}
	return nil
}

// oversubscribedFatTree reports whether a topology-axis string names a
// fat-tree with oversubscription factor >= 2.
func oversubscribedFatTree(s string) bool {
	if !strings.HasPrefix(s, "fattree") {
		return false
	}
	i := strings.Index(s, "oversub=")
	if i < 0 {
		return false
	}
	var f float64
	if _, err := fmt.Sscanf(s[i+len("oversub="):], "%g", &f); err != nil {
		return false
	}
	return f >= 2
}

// Metrics flattens the sweep: virtual mean allreduce time per cell, plus
// the busiest link's utilisation for information.
func (rep *TopoReport) Metrics() []Metric {
	var m metrics
	for _, r := range rep.Rows {
		m.add(ClassVirtual, LowerBetter, r.MeanNs, "topo.mean_ns{topo=%s,algo=%s,bytes=%d}", r.Topo, r.Algo, r.Bytes)
		m.add(ClassInfo, LowerBetter, r.MaxLinkUtil, "topo.max_link_util{topo=%s,algo=%s,bytes=%d}", r.Topo, r.Algo, r.Bytes)
	}
	return m
}
