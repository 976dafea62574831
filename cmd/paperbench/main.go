// Command paperbench regenerates the paper's figures and tables (Figs 2–14,
// Tables 1–2) in virtual time. Every figure is one entry of the figures
// table below; -fig selects entries by id, in paper order with -fig all:
//
//	paperbench -fig fig7a                 one figure
//	paperbench -fig fig2,fig9a -csv       several, as CSV
//	paperbench -fig all -quick            the whole evaluation, reduced
//
// -iters overrides an entry's iteration count (0 keeps the figure's own,
// which -quick lowers for the application figures). -approaches overrides
// each figure's approach list; Tables 1 and 2 always compare baseline with
// offload.
//
// Fault injection: -drop/-dup perturb the interconnect with a deterministic
// seeded plan (-fault-seed) while the protocol layer's reliable-delivery
// sublayer recovers; -watchdog-us bounds every request. With any of these
// set, a fault/recovery counter table follows each figure.
//
// Observability: -metrics prints one per-layer offload metrics table per
// approach after each figure; -trace=FILE writes a Chrome trace_event JSON
// of every run (open it in chrome://tracing or Perfetto) and prints a
// per-run digest; -critpath adds each traced run's critical-path
// attribution, which is also embedded in the trace's metadata block
// (cmd/tracetool re-derives it from the file alone); -telemetry=ADDR serves
// live metrics while the figures run. -topo and -agents change the network
// topology and the offload agent count of every simulated cluster.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mpioffload/bench"
	"mpioffload/internal/fault"
	"mpioffload/internal/model"
	"mpioffload/internal/obs"
	"mpioffload/internal/obs/critpath"
	"mpioffload/internal/obs/telemetry"
	"mpioffload/internal/topo"
	"mpioffload/sim"
)

// figure is one figure or table of the paper's evaluation.
type figure struct {
	id string
	// defaultIters and quickIters are the measured iterations without and
	// with -quick.
	defaultIters, quickIters int
	run                      func(r *runner, iters int)
}

// figures lists the evaluation in paper order.
var figures = []figure{
	{"fig2", 6, 6, func(r *runner, n int) { r.overlapP2P(n) }},
	{"fig3a", 5, 5, func(r *runner, n int) { r.overlapColl(8, n) }},
	{"fig3b", 5, 5, func(r *runner, n int) { r.overlapColl(16<<10, n) }},
	{"fig4", 20, 20, func(r *runner, n int) { r.isendPost(n) }},
	{"fig5a", 10, 10, func(r *runner, n int) { r.collPost(8, n) }},
	{"fig5b", 10, 10, func(r *runner, n int) { r.collPost(8<<10, n) }},
	{"fig6", 15, 15, func(r *runner, n int) { r.mtLatency(n) }},
	{"fig7a", 30, 30, func(r *runner, n int) { r.latency(model.Endeavor(), n) }},
	{"fig7b", 4, 4, func(r *runner, n int) { r.bandwidth(model.Endeavor(), n) }},
	{"fig8a", 30, 30, func(r *runner, n int) { r.latency(model.EndeavorPhi(), n) }},
	{"fig8b", 4, 4, func(r *runner, n int) { r.bandwidth(model.EndeavorPhi(), n) }},
	{"table1", 3, 2, func(r *runner, n int) { r.dslashSplit(n) }},
	{"fig9a", 3, 2, func(r *runner, n int) {
		r.dslashScaling(model.Endeavor(), []int{8, 16, 32, 64, 128, 256}, n, appApps...)
	}},
	{"fig9b", 3, 2, func(r *runner, n int) {
		r.dslashScaling(model.Edison(), []int{16, 32, 64, 128, 256}, n,
			sim.Baseline, sim.Iprobe, sim.CommSelf, sim.CoreSpec, sim.Offload)
	}},
	{"fig10", 3, 2, func(r *runner, n int) { r.dslashFractions(n) }},
	{"fig11", 3, 2, func(r *runner, n int) { r.solver(n) }},
	{"fig12", 3, 2, func(r *runner, n int) { r.threadGroups(n) }},
	{"table2", 2, 1, func(r *runner, n int) { r.fftSplit(n) }},
	{"fig13a", 2, 1, func(r *runner, n int) {
		r.fftScaling(model.Endeavor(), 1<<29, []int{2, 4, 8, 16, 32, 64, 128, 256}, 4, n, appApps...)
	}},
	{"fig13b", 2, 1, func(r *runner, n int) {
		// No comm-self: MPI_THREAD_MULTIPLE is unsupported on the Phi.
		r.fftScaling(model.EndeavorPhi(), 1<<25, []int{1, 2, 4, 8, 16, 32, 64}, 8, n,
			sim.Baseline, sim.Iprobe, sim.Offload)
	}},
	{"fig14", 3, 2, func(r *runner, n int) { r.cnnTraining(n) }},
}

// selectFigures resolves a -fig value: "all", or comma-separated ids.
func selectFigures(spec string) ([]figure, error) {
	if spec == "all" {
		return figures, nil
	}
	var out []figure
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		found := false
		for _, f := range figures {
			if f.id == id {
				out = append(out, f)
				found = true
				break
			}
		}
		if !found {
			ids := make([]string, len(figures))
			for i, f := range figures {
				ids[i] = f.id
			}
			return nil, fmt.Errorf("unknown figure %q (valid: all, %s)", id, strings.Join(ids, ", "))
		}
	}
	return out, nil
}

// runner holds the settings every figure shares.
type runner struct {
	csv      bool
	apps     []sim.Approach // -approaches; nil keeps each figure's own
	agents   int
	topo     *topo.Spec
	fault    *fault.Plan
	watchdog float64
	trace    *obs.Trace
	telem    *telemetry.Registry
}

// config builds every simulated cluster: the figure's platform profile
// (copied, with the -agents and -topo overrides) and approach, plus the
// run-wide fault plan, watchdog, trace and telemetry. ranks 0 lets the
// benchmark choose its own rank count.
func (r *runner) config(prof *model.Profile, a sim.Approach, ranks int) sim.Config {
	p := *prof
	p.Agents = r.agents
	p.Topo = r.topo
	return sim.Config{
		Ranks: ranks, Approach: a, Profile: &p,
		Fault: r.fault, Watchdog: r.watchdog,
		Trace: r.trace, Telemetry: r.telem,
	}
}

// approaches returns the -approaches override, or the figure's own list.
func (r *runner) approaches(own ...sim.Approach) []sim.Approach {
	if r.apps != nil {
		return r.apps
	}
	return own
}

func (r *runner) emit(t *bench.Table) {
	if r.csv {
		t.CSV(os.Stdout)
	} else {
		t.Print(os.Stdout)
	}
}

// epilogue prints the per-figure fault and metrics tables; both accumulate
// in package bench across the figure's runs.
func (r *runner) epilogue(metrics bool) {
	if r.fault != nil || r.watchdog > 0 {
		r.emit(bench.ResilienceTable(bench.TakeResilience()))
	}
	if metrics {
		for _, am := range bench.TakeMetricsPerApproach() {
			r.emit(bench.MetricsTableTitled(
				fmt.Sprintf("offload metrics [%s]", am.Approach), am.M))
		}
	}
}

func main() {
	figFlag := flag.String("fig", "all", "figure ids, comma-separated (fig2 … fig14, table1, table2), or all")
	iters := flag.Int("iters", 0, "measured iterations (0 = each figure's default)")
	quick := flag.Bool("quick", false, "fewer iterations for the application figures")
	csv := flag.Bool("csv", false, "emit CSV instead of a text table")
	approaches := flag.String("approaches", "", "comma-separated approach list overriding each figure's own")
	traceFile := flag.String("trace", "", "write a Chrome trace_event JSON of the runs to FILE")
	metrics := flag.Bool("metrics", false, "print the per-layer offload metrics table per approach")
	critPath := flag.Bool("critpath", false, "print each traced run's critical-path attribution (needs -trace)")
	drop := flag.Float64("drop", 0, "packet drop probability (0-1) for fault injection")
	dup := flag.Float64("dup", 0, "packet duplication probability (0-1) for fault injection")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the fault-injection PRNG")
	watchdogUs := flag.Float64("watchdog-us", 0, "per-request watchdog deadline in µs (0 = off)")
	telemAddr := flag.String("telemetry", "", "serve live telemetry on ADDR (e.g. :9090) while the figures run")
	topoFlag := flag.String("topo", "flat",
		"network topology (flat, fattree[:arity=A,oversub=O], dragonfly[:group=G], custom:map=N.N...)")
	agents := flag.Int("agents", 1, "offload agents per rank")
	flag.Parse()

	sel, err := selectFigures(*figFlag)
	if err != nil {
		log.Fatal(err)
	}
	r := &runner{csv: *csv, agents: *agents, watchdog: *watchdogUs * 1000}
	if *approaches != "" {
		if r.apps, err = parseApproaches(*approaches); err != nil {
			log.Fatal(err)
		}
	}
	if r.topo, err = topo.Parse(*topoFlag); err != nil {
		log.Fatalf("-topo: %v", err)
	}
	if *drop > 0 || *dup > 0 {
		r.fault = &fault.Plan{Seed: *faultSeed, DropRate: *drop, DupRate: *dup}
	}
	if *traceFile != "" {
		r.trace = obs.NewTrace(obs.Options{})
	}
	if *telemAddr != "" {
		r.telem = telemetry.New()
		srv, err := r.telem.Serve(*telemAddr)
		if err != nil {
			log.Fatalf("-telemetry: %v", err)
		}
		defer srv.Close()
		fmt.Printf("telemetry: serving http://%s/metrics (Prometheus) and /vars (JSON)\n", srv.Addr())
	}

	for i, f := range sel {
		if len(sel) > 1 {
			fmt.Printf("\n######## [%d/%d] %s ########\n", i+1, len(sel), f.id)
		}
		n := *iters
		if n == 0 {
			n = f.defaultIters
			if *quick {
				n = f.quickIters
			}
		}
		f.run(r, n)
		r.epilogue(*metrics)
	}

	if r.trace != nil {
		reports := critpath.Analyze(r.trace)
		r.trace.AddMeta("critpath", critpath.MetaJSON(reports))
		if err := writeTrace(*traceFile, r.trace); err != nil {
			log.Fatal(err)
		}
		fmt.Print(obs.Summary(r.trace))
		if *critPath {
			for _, rep := range reports {
				fmt.Print(rep.Table())
			}
		}
		fmt.Printf("trace written to %s (open in chrome://tracing or Perfetto)\n", *traceFile)
	}
}

func writeTrace(path string, tr *obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChrome(f, tr); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseApproaches(s string) ([]sim.Approach, error) {
	var out []sim.Approach
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "baseline":
			out = append(out, sim.Baseline)
		case "iprobe":
			out = append(out, sim.Iprobe)
		case "comm-self", "commself":
			out = append(out, sim.CommSelf)
		case "offload":
			out = append(out, sim.Offload)
		case "core-spec", "corespec":
			out = append(out, sim.CoreSpec)
		default:
			return nil, fmt.Errorf("unknown approach %q", part)
		}
	}
	return out, nil
}
