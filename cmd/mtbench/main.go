// Command mtbench runs the enqueue-scaling sweep: the mean Isend post cost
// as the submitting thread count grows 1–16, in virtual time (simulator,
// offload approach — must stay flat at EnqueueCost) and in wall-clock (rt
// layer — private-shard submission via RegisterThread versus the shared
// MPMC overflow path), plus the threads × agents grid (multi-agent offload
// engine: duty cycle, polling efficiency and completion throughput per
// cell). The result is written as BENCH_mtscale.json (schema mtscale/v2,
// checked by `benchdiff -validate`).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"mpioffload/bench"
	"mpioffload/internal/model"
	"mpioffload/internal/obs/telemetry"
	"mpioffload/sim"
)

func main() {
	profile := flag.String("profile", "endeavor", "endeavor | phi | edison")
	out := flag.String("out", "BENCH_mtscale.json", "output path")
	scaleIters := flag.Int("scale-iters", 40, "posts per thread in the sim sweep")
	rtIters := flag.Int("rt-iters", 20000, "posts per goroutine in the rt wall-clock sweep")
	maxThreads := flag.Int("max-threads", 16, "cap the sweep's thread axis (smoke runs cap lower, keeping the 16-thread perf-gate rows out of statistically tiny documents)")
	telemAddr := flag.String("telemetry", "", "serve live telemetry on ADDR (e.g. :9090) while the benchmark runs")
	telemSmoke := flag.Bool("telemetry-smoke", false, "self-contained telemetry check: tiny workload, one scrape, validate, exit")
	flag.Parse()

	prof, err := model.ByName(*profile)
	if err != nil {
		log.Fatal(err)
	}

	if *telemSmoke {
		if err := telemetrySmoke(prof); err != nil {
			log.Fatal(err)
		}
		return
	}
	var telem *telemetry.Registry
	if *telemAddr != "" {
		telem = serveTelemetry(*telemAddr)
	}
	runMTScale(prof, *out, *scaleIters, *rtIters, *maxThreads, telem)
}

// mtScaleThreads is the sweep's thread-count axis; mtScaleAgents the agent
// counts crossed with it in the threads × agents grid.
var (
	mtScaleThreads = []int{1, 2, 4, 8, 16}
	mtScaleAgents  = []int{1, 2, 4}
)

func runMTScale(prof *model.Profile, out string, scaleIters, rtIters, maxThreads int, telem *telemetry.Registry) {
	threads := make([]int, 0, len(mtScaleThreads))
	for _, t := range mtScaleThreads {
		if t <= maxThreads {
			threads = append(threads, t)
		}
	}
	p := *prof
	simRows := bench.MTPostScaling(sim.Config{Approach: sim.Offload, Profile: &p, Telemetry: telem}, threads, scaleIters)
	rtRows := rtPostScaling(threads, rtIters)
	agentCells := bench.MTAgentScaling(sim.Config{Approach: sim.Offload, Profile: &p, Telemetry: telem},
		threads, mtScaleAgents, scaleIters)
	rep := &bench.MTScaleReport{Schema: bench.MTScaleSchema, Profile: prof.Name, Sim: simRows, RT: rtRows, Agents: agentCells}
	if err := bench.WriteReport(out, rep); err != nil {
		log.Fatal(err)
	}
	t := bench.NewTable(
		fmt.Sprintf("Enqueue scaling, %s (sim: virtual post ns; rt: wall-clock ns/post)", prof.Name),
		"threads", "sim post", "sim batch", "rt sharded", "rt shared")
	for i, s := range simRows {
		t.Add(fmt.Sprintf("%d", s.Threads),
			fmt.Sprintf("%.0f", s.PostNs),
			fmt.Sprintf("%.2f", s.MeanBatch),
			fmt.Sprintf("%.0f", rtRows[i].ShardedNsPerPost),
			fmt.Sprintf("%.0f", rtRows[i].SharedNsPerPost))
	}
	t.Print(os.Stdout)
	ta := bench.NewTable(
		fmt.Sprintf("Agent scaling, %s (virtual time, saturated posts)", prof.Name),
		"threads", "agents", "post ns", "batch", "duty", "polls/cmpl", "posts/ms")
	for _, c := range agentCells {
		ta.Add(fmt.Sprintf("%d", c.Threads),
			fmt.Sprintf("%d", c.Agents),
			fmt.Sprintf("%.0f", c.PostNs),
			fmt.Sprintf("%.2f", c.MeanBatch),
			fmt.Sprintf("%.2f", c.DutyIssue+c.DutyProgress),
			fmt.Sprintf("%.2f", c.PollsPerCompletion),
			fmt.Sprintf("%.0f", c.PostsPerMs))
	}
	ta.Print(os.Stdout)
	fmt.Printf("wrote %s\n", out)
}
