package bench

import "fmt"

// ChaosSchema versions BENCH_chaos.json; bump on incompatible change.
const ChaosSchema = "chaos/v1"

// ChaosReport is the BENCH_chaos.json document: one cell per
// (topology, plan, approach) of the sweep.
type ChaosReport struct {
	Schema     string            `json:"schema"`
	Profile    string            `json:"profile"`
	Ranks      int               `json:"ranks"`
	Seed       int64             `json:"seed"`
	WatchdogNs float64           `json:"watchdog_ns"`
	Cells      []ChaosCellResult `json:"cells"`
}

// Validate checks a report's structure and the sweep's headline claims.
// Virtual time is deterministic, so the behavioural assertions (rerouting
// happened, crashes were detected, the offload path detects no later than
// the baseline) are safe to enforce on any machine.
func (rep *ChaosReport) Validate() error {
	if rep.Schema != ChaosSchema {
		return fmt.Errorf("schema %q, want %q", rep.Schema, ChaosSchema)
	}
	if rep.Profile == "" {
		return fmt.Errorf("missing profile")
	}
	if rep.Ranks < 4 {
		return fmt.Errorf("sweep needs >= 4 ranks, has %d", rep.Ranks)
	}
	if len(rep.Cells) < 12 {
		return fmt.Errorf("sweep has %d cells, want >= 12", len(rep.Cells))
	}

	detect := make(map[string]float64) // "topo|approach" → crash DetectNs
	var recoveryAttributed bool
	for _, c := range rep.Cells {
		id := fmt.Sprintf("%s/%s/%s", c.Topo, c.Plan, c.Approach)
		if len(c.Violations) != 0 {
			return fmt.Errorf("%s: %d invariant violations, first: %s", id, len(c.Violations), c.Violations[0])
		}
		if c.ElapsedNs <= 0 {
			return fmt.Errorf("%s: empty cell", id)
		}
		// A chaos cell that wraps the observability ring has silently lost
		// the events its own violations analysis depends on — the trace no
		// longer shows what happened around the fault.
		if c.TraceDrops != 0 {
			return fmt.Errorf("%s: obs ring dropped %d events; the post-fault trace is incomplete (raise obs RingCap)", id, c.TraceDrops)
		}
		switch c.Plan {
		case "drop":
			if c.Retransmits == 0 {
				return fmt.Errorf("%s: lossy cell recovered nothing", id)
			}
		case "trunkdown":
			if c.Rerouted == 0 {
				return fmt.Errorf("%s: dead link was never rerouted around", id)
			}
			if len(c.FailDropLinks) == 0 && c.LinkDrops > 0 {
				return fmt.Errorf("%s: link drops unattributed to a link", id)
			}
		case "flap":
			if c.LinkStalls == 0 {
				return fmt.Errorf("%s: flap window stalled no packets", id)
			}
		case "crash":
			if c.DetectNs <= 0 {
				return fmt.Errorf("%s: crash never detected", id)
			}
			if c.RecoverNs < c.DetectNs {
				return fmt.Errorf("%s: recovered (%f) before detecting (%f)", id, c.RecoverNs, c.DetectNs)
			}
			detect[c.Topo+"|"+c.Approach] = c.DetectNs
		default:
			return fmt.Errorf("%s: unknown plan", id)
		}
		if c.RecoveryPathNs > 0 {
			recoveryAttributed = true
		}
	}

	// Headline: offloading the communication must not delay failure
	// detection — the offload thread's watchdog fires no later than the
	// baseline's (small slack for schedule skew around the deadline).
	checked := 0
	for key, off := range detect {
		topo := key[:len(key)-len("|offload")]
		if key[len(topo):] != "|offload" {
			continue
		}
		base, ok := detect[topo+"|baseline"]
		if !ok {
			return fmt.Errorf("crash cell %s has no baseline counterpart", key)
		}
		if off > base*1.10+50_000 {
			return fmt.Errorf("offload detected the crash in %.0f ns, baseline in %.0f ns — offloading delayed detection", off, base)
		}
		checked++
	}
	if checked == 0 {
		return fmt.Errorf("sweep has no offload/baseline crash pair to compare")
	}
	if !recoveryAttributed {
		return fmt.Errorf("no cell attributed critical-path time to recovery")
	}
	return nil
}

// Metrics flattens the sweep: virtual elapsed, recovery and detection
// times per cell, hard tripwires on violations and trace drops, and
// informational retransmit and watchdog counts.
func (rep *ChaosReport) Metrics() []Metric {
	var m metrics
	for _, c := range rep.Cells {
		cell := fmt.Sprintf("{topo=%s,plan=%s,approach=%s}", c.Topo, c.Plan, c.Approach)
		m.add(ClassVirtual, LowerBetter, float64(c.ElapsedNs), "chaos.elapsed_ns%s", cell)
		m.add(ClassVirtual, LowerBetter, c.RecoverNs, "chaos.recover_ns%s", cell)
		if c.Plan == "crash" {
			m.add(ClassVirtual, LowerBetter, c.DetectNs, "chaos.detect_ns%s", cell)
		}
		m.add(ClassHard, LowerBetter, float64(len(c.Violations)), "chaos.violations%s", cell)
		m.add(ClassHard, LowerBetter, float64(c.TraceDrops), "chaos.trace_drops%s", cell)
		m.add(ClassInfo, LowerBetter, float64(c.Retransmits), "chaos.retransmits%s", cell)
		m.add(ClassInfo, LowerBetter, float64(c.WatchdogTrips), "chaos.watchdog_trips%s", cell)
	}
	return m
}
