package bench

import (
	"fmt"
	"sort"
)

// MTScaleSchema versions BENCH_mtscale.json; bump on incompatible change.
// v2 adds the threads × agents sweep (post cost, duty cycle, polling
// efficiency, completion throughput per cell) and the perf gates the
// validator applies to full-size documents.
const MTScaleSchema = "mtscale/v2"

// agentSpeedupMin is the perf gate on the saturated cell: with every
// submission thread flooding a GateThreads workload, two agents must
// deliver at least this much more completion throughput than one.
const agentSpeedupMin = 1.2

// RTScaleRow is one thread count of the wall-clock sweep: mean ns an
// application goroutine spends inside Isend, posting through a private
// shard (RegisterThread) versus through the shared MPMC overflow (plain
// Rank calls — the pre-sharding command queue).
type RTScaleRow struct {
	Threads          int     `json:"threads"`
	ShardedNsPerPost float64 `json:"sharded_ns_per_post"`
	SharedNsPerPost  float64 `json:"shared_ns_per_post"`
}

// MTScaleReport is the BENCH_mtscale.json document.
type MTScaleReport struct {
	Schema  string          `json:"schema"`
	Profile string          `json:"profile"`
	Sim     []MTScaleResult `json:"sim"`
	RT      []RTScaleRow    `json:"rt"`
	Agents  []MTAgentCell   `json:"agents"`
}

// Validate checks a report's structure — schema tag, non-empty sweeps,
// ascending axes, positive measurements — and, on documents that reach the
// saturated GateThreads cell, the two perf gates: the sharded wall-clock
// post must not be slower than the shared-MPMC post, and two agents must
// beat one by agentSpeedupMin on completion throughput.
func (rep *MTScaleReport) Validate() error {
	if rep.Schema != MTScaleSchema {
		return fmt.Errorf("schema %q, want %q", rep.Schema, MTScaleSchema)
	}
	if rep.Profile == "" {
		return fmt.Errorf("missing profile")
	}
	if len(rep.Sim) == 0 || len(rep.RT) == 0 || len(rep.Agents) == 0 {
		return fmt.Errorf("empty sweep: %d sim rows, %d rt rows, %d agent cells",
			len(rep.Sim), len(rep.RT), len(rep.Agents))
	}
	if !sort.SliceIsSorted(rep.Sim, func(i, j int) bool { return rep.Sim[i].Threads < rep.Sim[j].Threads }) {
		return fmt.Errorf("sim thread counts not ascending")
	}
	if !sort.SliceIsSorted(rep.RT, func(i, j int) bool { return rep.RT[i].Threads < rep.RT[j].Threads }) {
		return fmt.Errorf("rt thread counts not ascending")
	}
	if !sort.SliceIsSorted(rep.Agents, func(i, j int) bool {
		a, b := rep.Agents[i], rep.Agents[j]
		if a.Threads != b.Threads {
			return a.Threads < b.Threads
		}
		return a.Agents < b.Agents
	}) {
		return fmt.Errorf("agent cells not in (threads, agents) ascending order")
	}
	for _, r := range rep.Sim {
		if r.Threads < 1 || r.PostNs <= 0 || r.MeanBatch < 1 {
			return fmt.Errorf("bad sim row %+v", r)
		}
	}
	for _, r := range rep.RT {
		if r.Threads < 1 || r.ShardedNsPerPost <= 0 || r.SharedNsPerPost <= 0 {
			return fmt.Errorf("bad rt row %+v", r)
		}
	}
	for _, c := range rep.Agents {
		// PollsPerCompletion may legitimately be zero: a saturated eager
		// workload completes every command inline at issue, so the agents
		// never reach a Testany round.
		if c.Threads < 1 || c.Agents < 1 || c.PostNs <= 0 || c.MeanBatch < 1 ||
			c.PollsPerCompletion < 0 || c.PostsPerMs <= 0 {
			return fmt.Errorf("bad agent cell %+v", c)
		}
		for _, d := range []float64{c.DutyIssue, c.DutyProgress, c.DutyIdle} {
			if d < 0 || d > 1 {
				return fmt.Errorf("duty fraction out of range in %+v", c)
			}
		}
	}
	return rep.validateGates()
}

// validateGates applies the perf gates to the saturated GateThreads rows.
// Smoke-sized documents (no 16-thread row) pass structural validation only.
func (rep *MTScaleReport) validateGates() error {
	for _, r := range rep.RT {
		if r.Threads == GateThreads && r.ShardedNsPerPost > r.SharedNsPerPost {
			return fmt.Errorf("perf gate: sharded post %.0f ns > shared %.0f ns at %d threads",
				r.ShardedNsPerPost, r.SharedNsPerPost, GateThreads)
		}
	}
	var one, two float64
	for _, c := range rep.Agents {
		if c.Threads != GateThreads {
			continue
		}
		switch c.Agents {
		case 1:
			one = c.PostsPerMs
		case 2:
			two = c.PostsPerMs
		}
	}
	if one > 0 || two > 0 {
		if one <= 0 || two <= 0 {
			return fmt.Errorf("perf gate: %d-thread row needs both 1- and 2-agent cells", GateThreads)
		}
		if speedup := two / one; speedup < agentSpeedupMin {
			return fmt.Errorf("perf gate: 2 agents give %.2fx throughput at %d threads, want ≥ %.1fx",
				speedup, GateThreads, agentSpeedupMin)
		}
	}
	return nil
}

// Metrics flattens the sweep: virtual post costs and throughputs, wall-clock
// rt post costs, and informational batch sizes and duty cycles.
func (rep *MTScaleReport) Metrics() []Metric {
	var m metrics
	for _, r := range rep.Sim {
		m.add(ClassVirtual, LowerBetter, r.PostNs, "sim.post_ns{threads=%d}", r.Threads)
		m.add(ClassInfo, HigherBetter, r.MeanBatch, "sim.mean_batch{threads=%d}", r.Threads)
	}
	for _, r := range rep.RT {
		m.add(ClassWall, LowerBetter, r.ShardedNsPerPost, "rt.sharded_ns_per_post{threads=%d}", r.Threads)
		m.add(ClassWall, LowerBetter, r.SharedNsPerPost, "rt.shared_ns_per_post{threads=%d}", r.Threads)
	}
	for _, c := range rep.Agents {
		m.add(ClassVirtual, LowerBetter, c.PostNs, "agents.post_ns{threads=%d,agents=%d}", c.Threads, c.Agents)
		m.add(ClassVirtual, HigherBetter, c.PostsPerMs, "agents.posts_per_ms{threads=%d,agents=%d}", c.Threads, c.Agents)
		m.add(ClassInfo, HigherBetter, c.DutyIssue+c.DutyProgress, "agents.duty{threads=%d,agents=%d}", c.Threads, c.Agents)
	}
	return m
}
