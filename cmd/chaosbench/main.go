// Command chaosbench is the self-healing-fabric chaos sweep: seeded fault
// plans (packet loss, a permanent trunk failure, a transient link flap, a
// rank crash) crossed with multi-path topologies (a 2-trunk fat-tree and a
// dragonfly) and both the Baseline and Offload approaches. Every cell runs
// an exactly-once eager stream and a large allreduce across the fault and
// records invariant violations instead of asserting, so a sweep always
// completes; the result is written as BENCH_chaos.json (schema chaos/v1).
// `benchdiff -validate` checks such a document: zero violations anywhere,
// dead links rerouted around, flaps stalled through, crashes detected and
// recovered from by shrinking — and the offloaded runs detecting rank
// failure no later than the baseline's watchdog does.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mpioffload/bench"
	"mpioffload/internal/fault"
	"mpioffload/internal/model"
	"mpioffload/internal/topo"
	"mpioffload/sim"
)

// The sweep axes. Topology and plan are fixed so every BENCH_chaos.json is
// comparable; the fault instant sits mid-stream so the workload straddles
// the detection and reroute windows.
var (
	topoAxis = []string{
		"fattree:arity=4,oversub=2,trunks=2",
		"dragonfly:group=2",
	}
	planAxis     = []string{"drop", "trunkdown", "flap", "crash"}
	approachAxis = []sim.Approach{sim.Baseline, sim.Offload}
)

const faultAt = 150_000 // ns: mid-stream

// deadLink names the link each topology's trunkdown/flap plans kill: a leaf
// uplink trunk on the fat-tree (its twin survives), one directed global
// link on the dragonfly (rerouting detours via an intermediate group).
func deadLink(topoSpec string) string {
	if topoSpec[:4] == "drag" {
		return "grp0-grp1"
	}
	return "leaf0.up0"
}

// specFor builds one cell's fault plan and expectations.
func specFor(topoSpec, plan string, seed int64) bench.ChaosSpec {
	s := bench.ChaosSpec{Topo: topoSpec, Plan: plan, FaultAt: faultAt}
	switch plan {
	case "drop":
		s.Fault = &fault.Plan{Seed: seed, DropRate: 0.03, DupRate: 0.01}
		s.FaultAt = 0
		s.ExpectRetransmits = true
	case "trunkdown":
		s.Fault = &fault.Plan{Seed: seed,
			Links: []fault.LinkDown{{Link: deadLink(topoSpec), Start: faultAt}}}
		s.ExpectReroute = true
	case "flap":
		s.Fault = &fault.Plan{Seed: seed,
			Links: []fault.LinkDown{{Link: deadLink(topoSpec), Start: faultAt, End: faultAt + 100_000}}}
		s.ExpectLinkStalls = true
	case "crash":
		s.Fault = &fault.Plan{Seed: seed,
			Crashes: []fault.Crash{{Rank: -1, At: faultAt}}} // rank patched by caller
		s.Crash = true
	default:
		log.Fatalf("unknown plan %q", plan)
	}
	return s
}

func main() {
	profile := flag.String("profile", "endeavor", "endeavor | phi | edison")
	ranks := flag.Int("ranks", 8, "rank count (one rank per node)")
	seed := flag.Int64("seed", 1, "fault-plan seed")
	watchdog := flag.Float64("watchdog", 600_000, "request deadline, virtual ns")
	out := flag.String("out", "BENCH_chaos.json", "output path")
	csv := flag.Bool("csv", false, "emit CSV tables instead of aligned text")
	flag.Parse()

	prof, err := model.ByName(*profile)
	if err != nil {
		log.Fatal(err)
	}

	rep := &bench.ChaosReport{
		Schema:     bench.ChaosSchema,
		Profile:    prof.Name,
		Ranks:      *ranks,
		Seed:       *seed,
		WatchdogNs: *watchdog,
	}
	for _, ts := range topoAxis {
		spec, err := topo.Parse(ts)
		if err != nil {
			log.Fatalf("topology %q: %v", ts, err)
		}
		for _, plan := range planAxis {
			for _, a := range approachAxis {
				p := *prof
				p.RanksPerNode = 1
				p.Topo = spec
				cs := specFor(ts, plan, *seed)
				if cs.Crash {
					cs.Fault.Crashes[0].Rank = *ranks - 1
				}
				cell := bench.ChaosCell(sim.Config{
					Approach: a, Profile: &p, Watchdog: *watchdog,
				}, *ranks, cs)
				rep.Cells = append(rep.Cells, cell)
			}
		}
	}
	if err := bench.WriteReport(*out, rep); err != nil {
		log.Fatal(err)
	}

	t := bench.NewTable(
		fmt.Sprintf("Chaos sweep (%d ranks, %s; watchdog %s)",
			*ranks, prof.Name, bench.Us(*watchdog)),
		"topology", "plan", "approach", "detect µs", "recover µs",
		"rerouted", "retransmits", "recovery path µs", "violations")
	for _, c := range rep.Cells {
		t.Add(c.Topo, c.Plan, c.Approach,
			bench.Us(c.DetectNs), bench.Us(c.RecoverNs),
			c.Rerouted, c.Retransmits, bench.Us(float64(c.RecoveryPathNs)),
			len(c.Violations))
	}
	if *csv {
		t.CSV(os.Stdout)
	} else {
		t.Print(os.Stdout)
	}
	for _, c := range rep.Cells {
		for _, v := range c.Violations {
			fmt.Printf("VIOLATION %s/%s/%s: %s\n", c.Topo, c.Plan, c.Approach, v)
		}
	}
	fmt.Printf("wrote %s\n", *out)
}
