// Command netbench measures the rt offload stack over real wires: for
// each transport backend (in-process loopback, Unix-domain sockets, TCP)
// it runs a wall-clock OSU-style ping-pong latency sweep and a
// multithreaded message-rate sweep comparing the Direct (global lock)
// baseline against the Offload path, writes BENCH_net.json (schema
// net/v1), and tabulates the sim-vs-real residual: the simulator's
// virtual-time prediction for each microbenchmark next to what this
// host's sockets actually deliver.
//
// `benchdiff -validate` checks such a document's schema and, on full-size
// documents, the saturated perf gate (offload rate ≥ direct rate at 16
// threads). Under a cmd/mpirun launch (MPIOFFLOAD_* set) netbench instead
// runs as one rank of a two-process ping-pong job (see worker.go).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"mpioffload/bench"
	"mpioffload/internal/transport"
	"mpioffload/rt"
	"mpioffload/sim"
)

func main() {
	if cfg, ok := transport.EnvConfig(); ok {
		runWorker(cfg)
		return
	}
	out := flag.String("out", "BENCH_net.json", "output path")
	backends := flag.String("backends", "loopback,unix", "comma-separated backends: loopback, unix, tcp")
	quick := flag.Bool("quick", false, "reduced sweep (no 16-thread gate rows, no residuals)")
	ppIters := flag.Int("iters", 600, "ping-pong iterations per size")
	rateIters := flag.Int("rate-iters", 6000, "messages per sender thread in the rate sweep")
	flag.Parse()

	sizes := []int{8, 512, 4 << 10, 64 << 10}
	threadCounts := []int{1, 4, bench.GateThreads}
	if *quick {
		sizes = []int{8, 4 << 10}
		threadCounts = []int{1, 2}
		if *ppIters > 200 {
			*ppIters = 200
		}
		if *rateIters > 500 {
			*rateIters = 500
		}
	}

	rep := &bench.NetReport{Schema: bench.NetSchema}
	for _, name := range strings.Split(*backends, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		b, err := benchBackend(name, sizes, threadCounts, *ppIters, *rateIters)
		if err != nil {
			log.Fatalf("netbench: %s: %v", name, err)
		}
		rep.Backends = append(rep.Backends, b)
	}
	if !*quick {
		rep.Residuals = residuals(rep, sizes, *ppIters)
	}
	if err := bench.WriteReport(*out, rep); err != nil {
		log.Fatal(err)
	}
	printReport(rep)
	fmt.Printf("wrote %s\n", *out)
}

// residuals anchors the simulator against the real wire: the sim rows are
// virtual-time predictions for the paper's Endeavor fabric, the real rows
// this host's sockets — the ratio is the documented model-vs-localhost
// residual, not an error bar (different hardware on purpose).
func residuals(rep *bench.NetReport, sizes []int, ppIters int) []bench.NetResidual {
	cfg := sim.Config{Approach: sim.Offload}
	simPP := bench.OSULatency(cfg, sizes, 10)
	simMT := bench.OSUMultithreadedLatency(cfg, bench.GateThreads, []int{64}, 6)
	var rows []bench.NetResidual
	for _, b := range rep.Backends {
		for i, pp := range b.PingPong {
			if i >= len(simPP) {
				break
			}
			rows = append(rows, bench.NetResidual{
				Bench:   "pingpong/" + bench.SizeLabel(pp.Size),
				Backend: b.Backend,
				SimNs:   simPP[i].LatencyNs,
				RealNs:  pp.LatencyNs,
				Ratio:   pp.LatencyNs / simPP[i].LatencyNs,
			})
		}
		// The 16-thread multithreaded ping-pong, the shape of the paper's
		// Fig 6 saturated cell.
		c, err := newBackendCluster(b.Backend, rt.Offload, rt.Options{ShardCount: bench.GateThreads})
		if err != nil {
			log.Fatalf("netbench: %s: %v", b.Backend, err)
		}
		iters := ppIters / 4
		if iters < 50 {
			iters = 50
		}
		realMT := pingPong(c, bench.GateThreads, 64, iters)
		c.Close()
		rows = append(rows, bench.NetResidual{
			Bench:   fmt.Sprintf("mt_pingpong/%dt/64B", bench.GateThreads),
			Backend: b.Backend,
			SimNs:   simMT[0].LatencyNs,
			RealNs:  realMT,
			Ratio:   realMT / simMT[0].LatencyNs,
		})
	}
	return rows
}

func printReport(rep *bench.NetReport) {
	for _, b := range rep.Backends {
		t := bench.NewTable(fmt.Sprintf("Ping-pong one-way latency, %s backend", b.Backend),
			"size", "latency µs")
		for _, r := range b.PingPong {
			t.Add(bench.SizeLabel(r.Size), bench.Us(r.LatencyNs))
		}
		t.Print(os.Stdout)
		tr := bench.NewTable(fmt.Sprintf("Message rate (64 B floods), %s backend", b.Backend),
			"threads", "direct msg/s", "offload msg/s", "speedup")
		for _, r := range b.Rate {
			tr.Add(fmt.Sprintf("%d", r.Threads),
				fmt.Sprintf("%.0f", r.DirectMsgsSec),
				fmt.Sprintf("%.0f", r.OffloadMsgsSec),
				fmt.Sprintf("%.2fx", r.OffloadMsgsSec/r.DirectMsgsSec))
		}
		tr.Print(os.Stdout)
	}
	if len(rep.Residuals) > 0 {
		t := bench.NewTable("Sim-vs-real residuals (sim: Endeavor model, virtual ns; real: this host)",
			"bench", "backend", "sim µs", "real µs", "real/sim")
		for _, r := range rep.Residuals {
			t.Add(r.Bench, r.Backend, bench.Us(r.SimNs), bench.Us(r.RealNs), fmt.Sprintf("%.2f", r.Ratio))
		}
		t.Print(os.Stdout)
	}
}
