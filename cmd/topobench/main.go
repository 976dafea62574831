// Command topobench sweeps allreduce algorithms across network topologies:
// the flat analytic fabric, fat-trees at 1:1 and 2:1 oversubscription, and
// a dragonfly, each running the flat ring, the topology-aware hierarchical
// schedule, and Iallreduce's automatic selection over message sizes from
// 64 KiB to 4 MiB. The result is written as BENCH_topo.json (schema
// topo/v1); `benchdiff -validate` checks such a document, including the
// headline claim that the hierarchical allreduce beats the flat ring for
// >= 1 MiB buffers on the 2:1-oversubscribed fat-tree.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mpioffload/bench"
	"mpioffload/internal/model"
	"mpioffload/internal/topo"
	"mpioffload/sim"
)

// The sweep axes. Node count and ranks-per-node are flags; the topology,
// algorithm and size axes are fixed so every BENCH_topo.json is comparable.
var (
	topoAxis = []string{
		"flat",
		"fattree:arity=4,oversub=1",
		"fattree:arity=4,oversub=2",
		"dragonfly:group=4",
	}
	algoAxis = []string{"ring", "hier", "auto"}
	sizeAxis = []int{64 << 10, 256 << 10, 1 << 20, 4 << 20}
)

func main() {
	profile := flag.String("profile", "endeavor", "endeavor | phi | edison")
	nodes := flag.Int("nodes", 16, "cluster node count")
	rpn := flag.Int("rpn", 2, "ranks per node")
	iters := flag.Int("iters", 3, "measured allreduces per cell")
	out := flag.String("out", "BENCH_topo.json", "output path")
	csv := flag.Bool("csv", false, "emit CSV tables instead of aligned text")
	flag.Parse()

	prof, err := model.ByName(*profile)
	if err != nil {
		log.Fatal(err)
	}

	rep := &bench.TopoReport{
		Schema:       bench.TopoSchema,
		Profile:      prof.Name,
		Nodes:        *nodes,
		RanksPerNode: *rpn,
	}
	ranks := *nodes * *rpn
	for _, ts := range topoAxis {
		spec, err := topo.Parse(ts)
		if err != nil {
			log.Fatalf("topology %q: %v", ts, err)
		}
		for _, algo := range algoAxis {
			for _, size := range sizeAxis {
				p := *prof
				p.RanksPerNode = *rpn
				p.Topo = spec
				cfg := sim.Config{Approach: sim.Baseline, Profile: &p}
				row := bench.TopoAllreduce(cfg, ranks, algo, size, *iters)
				row.Topo = ts
				rep.Rows = append(rep.Rows, row)
			}
		}
	}
	if err := bench.WriteReport(*out, rep); err != nil {
		log.Fatal(err)
	}

	for _, ts := range topoAxis {
		t := bench.NewTable(
			fmt.Sprintf("Allreduce on %s (%d nodes x %d ranks, %s; mean µs/op)",
				ts, *nodes, *rpn, prof.Name),
			"size", "ring", "hier", "auto", "max link util", "max link wait µs")
		for _, size := range sizeAxis {
			cells := make(map[string]bench.TopoCollResult)
			for _, r := range rep.Rows {
				if r.Topo == ts && r.Bytes == size {
					cells[r.Algo] = r
				}
			}
			util, wait := 0.0, 0.0
			for _, r := range cells {
				if r.MaxLinkUtil > util {
					util = r.MaxLinkUtil
				}
				if r.MaxLinkWaitNs > wait {
					wait = r.MaxLinkWaitNs
				}
			}
			t.Add(bench.SizeLabel(size),
				bench.Us(cells["ring"].MeanNs), bench.Us(cells["hier"].MeanNs),
				bench.Us(cells["auto"].MeanNs),
				fmt.Sprintf("%.3f", util), bench.Us(wait))
		}
		if *csv {
			t.CSV(os.Stdout)
		} else {
			t.Print(os.Stdout)
		}
	}
	fmt.Printf("wrote %s\n", *out)
}
