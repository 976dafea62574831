package main

import (
	"fmt"

	"mpioffload/apps/cnn"
	"mpioffload/apps/fft"
	"mpioffload/apps/qcd"
	"mpioffload/bench"
	"mpioffload/internal/model"
	"mpioffload/sim"
)

// collRanks is the node count of the collective figures (Figs 3 and 5).
const collRanks = 16

// Lattices of the QCD figures.
var (
	smallLattice = [qcd.Nd]int{32, 32, 32, 256}
	largeLattice = [qcd.Nd]int{48, 48, 48, 512}
)

// The approach lists the figures compare unless -approaches overrides them.
var (
	// microApps: the paper's microbenchmarks (Figs 2–8).
	microApps = []sim.Approach{sim.Baseline, sim.CommSelf, sim.Offload}
	// appApps: the application figures on Endeavor.
	appApps = []sim.Approach{sim.Baseline, sim.Iprobe, sim.CommSelf, sim.Offload}
)

func names(apps []sim.Approach) []string {
	out := make([]string, len(apps))
	for i, a := range apps {
		out[i] = a.String()
	}
	return out
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// lead turns row labels into each row's leading cell.
func lead[T any](labels []T) [][]any {
	out := make([][]any, len(labels))
	for i, l := range labels {
		out[i] = []any{l}
	}
	return out
}

func sizeLabels(sizes []int) []string {
	out := make([]string, len(sizes))
	for i, n := range sizes {
		out[i] = bench.SizeLabel(n)
	}
	return out
}

// tabulate prints a table with one column per approach: measure runs the
// approach's whole sweep and returns its column, one cell per row after
// that row's leading cells.
func (r *runner) tabulate(title string, head []string, rows [][]any, apps []sim.Approach, measure func(sim.Approach) []string) {
	t := bench.NewTable(title, append(head, names(apps)...)...)
	cols := make([][]string, len(apps))
	for i, a := range apps {
		cols[i] = measure(a)
	}
	for row, cells := range rows {
		for i := range apps {
			cells = append(cells, cols[i][row])
		}
		t.Add(cells...)
	}
	r.emit(t)
}

// ---- Microbenchmarks (§4) ----

// overlapP2P is Fig 2: post, overlap and wait time as a percentage of
// communication time for nonblocking point-to-point.
func (r *runner) overlapP2P(iters int) {
	prof := model.Endeavor()
	var rows [][]any
	for _, sz := range sizeLabels(bench.DefaultSizes) {
		rows = append(rows, []any{sz, "post%"}, []any{sz, "overlap%"}, []any{sz, "wait%"})
	}
	r.tabulate(fmt.Sprintf("Fig 2: p2p compute-communication overlap (%% of comm time), %s", prof.Name),
		[]string{"size", "metric"}, rows, r.approaches(microApps...),
		func(a sim.Approach) (col []string) {
			for _, o := range bench.OverlapP2P(r.config(prof, a, 0), bench.DefaultSizes, iters) {
				col = append(col, f1(o.PostPct), f1(o.OverlapPct), f1(o.WaitPct))
			}
			return col
		})
}

// overlapColl is Fig 3: overlap % for nonblocking collectives.
func (r *runner) overlapColl(size, iters int) {
	prof := model.Endeavor()
	r.tabulate(fmt.Sprintf("Fig 3: collective overlap %% at %d B on %d ranks, %s", size, collRanks, prof.Name),
		[]string{"collective"}, lead(bench.CollKinds), r.approaches(microApps...),
		func(a sim.Approach) (col []string) {
			for _, o := range bench.OverlapColl(r.config(prof, a, 0), collRanks, bench.CollKinds, size, iters) {
				col = append(col, f1(o.OverlapPct))
			}
			return col
		})
}

// isendPost is Fig 4: nonblocking MPI_Isend post time versus size.
func (r *runner) isendPost(iters int) {
	prof := model.Endeavor()
	r.tabulate(fmt.Sprintf("Fig 4: MPI_Isend post time (µs), %s", prof.Name),
		[]string{"size"}, lead(sizeLabels(bench.DefaultSizes)), r.approaches(microApps...),
		func(a sim.Approach) (col []string) {
			for _, p := range bench.IsendPostTime(r.config(prof, a, 0), bench.DefaultSizes, iters) {
				col = append(col, bench.Us(p.PostNs))
			}
			return col
		})
}

// collPost is Fig 5: nonblocking collective call time.
func (r *runner) collPost(size, iters int) {
	prof := model.Endeavor()
	r.tabulate(fmt.Sprintf("Fig 5: nonblocking collective call time (µs), %d B on %d ranks, %s", size, collRanks, prof.Name),
		[]string{"collective"}, lead(bench.CollKinds), r.approaches(microApps...),
		func(a sim.Approach) (col []string) {
			for _, p := range bench.CollPostTime(r.config(prof, a, 0), collRanks, bench.CollKinds, size, iters) {
				col = append(col, bench.Us(p.PostNs))
			}
			return col
		})
}

// mtLatency is Fig 6: the OSU multithreaded latency benchmark under
// MPI_THREAD_MULTIPLE with 2, 4 and 8 thread pairs per rank.
func (r *runner) mtLatency(iters int) {
	prof := model.Endeavor()
	sizes := []int{8, 64, 512, 4 << 10, 32 << 10}
	for _, threads := range []int{2, 4, 8} {
		r.tabulate(fmt.Sprintf("Fig 6: OSU multithreaded latency (µs), %d thread pairs, %s", threads, prof.Name),
			[]string{"size"}, lead(sizeLabels(sizes)), r.approaches(microApps...),
			func(a sim.Approach) (col []string) {
				for _, l := range bench.OSUMultithreadedLatency(r.config(prof, a, 0), threads, sizes, iters) {
					col = append(col, bench.Us(l.LatencyNs))
				}
				return col
			})
	}
}

// latency is Figs 7a and 8a: OSU one-way latency.
func (r *runner) latency(prof *model.Profile, iters int) {
	r.tabulate(fmt.Sprintf("Fig 7a/8a: OSU one-way latency (µs), %s", prof.Name),
		[]string{"size"}, lead(sizeLabels(bench.DefaultSizes)), r.approaches(microApps...),
		func(a sim.Approach) (col []string) {
			for _, l := range bench.OSULatency(r.config(prof, a, 0), bench.DefaultSizes, iters) {
				col = append(col, bench.Us(l.LatencyNs))
			}
			return col
		})
}

// bandwidth is Figs 7b and 8b: OSU unidirectional bandwidth, measured over
// `windows` windows of 64 in-flight messages.
func (r *runner) bandwidth(prof *model.Profile, windows int) {
	r.tabulate(fmt.Sprintf("Fig 7b/8b: OSU bandwidth (GB/s), %s", prof.Name),
		[]string{"size"}, lead(sizeLabels(bench.DefaultSizes)), r.approaches(microApps...),
		func(a sim.Approach) (col []string) {
			for _, b := range bench.OSUBandwidth(r.config(prof, a, 0), bench.DefaultSizes, 64, windows) {
				col = append(col, fmt.Sprintf("%.2f", b.GBps))
			}
			return col
		})
}

// ---- QCD (§5.1) ----

// dslash runs the Dslash model on nodes×RanksPerNode ranks and returns
// rank 0's time split.
func (r *runner) dslash(prof *model.Profile, a sim.Approach, nodes int, L [qcd.Nd]int, iters int) qcd.TimeSplit {
	var ts qcd.TimeSplit
	bench.Run(r.config(prof, a, nodes*prof.RanksPerNode), func(env *sim.Env) {
		s := qcd.RunDslash(env, L, 1, iters)
		if env.Rank() == 0 {
			ts = s
		}
	})
	return ts
}

// dslashSplit is Table 1: the Dslash per-iteration time split, baseline
// versus offload, 8–256 nodes.
func (r *runner) dslashSplit(iters int) {
	t := bench.NewTable("Table 1: QCD Dslash time split per iteration, 32³×256, Endeavor (µs)",
		"nodes",
		"base.internal", "base.post", "base.wait", "base.misc", "base.total",
		"off.internal", "off.post", "off.wait", "off.misc", "off.total",
		"compute.slowdown%", "post.reduction%", "wait.reduction%")
	for _, nodes := range []int{8, 16, 32, 64, 128, 256} {
		b := r.dslash(model.Endeavor(), sim.Baseline, nodes, smallLattice, iters)
		o := r.dslash(model.Endeavor(), sim.Offload, nodes, smallLattice, iters)
		t.Add(nodes,
			bench.Us(b.Internal), bench.Us(b.Post), bench.Us(b.Wait), bench.Us(b.Misc), bench.Us(b.Total),
			bench.Us(o.Internal), bench.Us(o.Post), bench.Us(o.Wait), bench.Us(o.Misc), bench.Us(o.Total),
			f1(100*(o.Internal/b.Internal-1)), f1(100*(1-o.Post/b.Post)), f1(100*(1-o.Wait/b.Wait)))
	}
	r.emit(t)
}

// dslashScaling is Fig 9: Dslash strong scaling in TFLOP/s for both
// lattices.
func (r *runner) dslashScaling(prof *model.Profile, nodeCounts []int, iters int, own ...sim.Approach) {
	for _, L := range [][qcd.Nd]int{smallLattice, largeLattice} {
		r.tabulate(fmt.Sprintf("Fig 9 (%s): Wilson-Dslash strong scaling, %dx%dx%dx%d lattice (TFLOP/s)",
			prof.Name, L[0], L[1], L[2], L[3]),
			[]string{"nodes"}, lead(nodeCounts), r.approaches(own...),
			func(a sim.Approach) (col []string) {
				for _, nodes := range nodeCounts {
					ts := r.dslash(prof, a, nodes, L, iters)
					col = append(col, fmt.Sprintf("%.2f", qcd.Tflops(L, ts.Total)))
				}
				return col
			})
	}
}

// dslashFractions is Fig 10: the Dslash timing split as fractions, on Xeon
// and Phi.
func (r *runner) dslashFractions(iters int) {
	apps := r.approaches(sim.Baseline, sim.Offload)
	for _, prof := range []*model.Profile{model.Endeavor(), model.EndeavorPhi()} {
		t := bench.NewTable(
			fmt.Sprintf("Fig 10: Wilson-Dslash timing split (%% of total), 32³×256, %s", prof.Name),
			"nodes", "approach", "compute%", "wait%", "misc%")
		for _, nodes := range []int{16, 64, 256} {
			for _, a := range apps {
				ts := r.dslash(prof, a, nodes, smallLattice, iters)
				t.Add(nodes, a.String(),
					f1(100*(ts.Internal+ts.Post)/ts.Total), f1(100*ts.Wait/ts.Total), f1(100*ts.Misc/ts.Total))
			}
		}
		r.emit(t)
	}
}

// solver is Fig 11: full CG solver TFLOP/s.
func (r *runner) solver(iters int) {
	prof := model.Endeavor()
	nodeCounts := []int{8, 16, 32, 64, 128, 256}
	r.tabulate("Fig 11: QCD solver (CG) performance, 32³×256, Endeavor (TFLOP/s)",
		[]string{"nodes"}, lead(nodeCounts), r.approaches(appApps...),
		func(a sim.Approach) (col []string) {
			for _, nodes := range nodeCounts {
				var per float64
				bench.Run(r.config(prof, a, nodes*prof.RanksPerNode), func(env *sim.Env) {
					s := qcd.RunSolver(env, smallLattice, 1, iters)
					if env.Rank() == 0 {
						per = s
					}
				})
				col = append(col, fmt.Sprintf("%.2f", qcd.SolverTflops(smallLattice, per)))
			}
			return col
		})
}

// threadGroups is Fig 12: Dslash with thread groups under
// MPI_THREAD_MULTIPLE, relative to the funneled version.
func (r *runner) threadGroups(iters int) {
	prof := model.Endeavor()
	nodeCounts := []int{32, 64, 128}
	r.tabulate("Fig 12: Dslash with thread groups + MPI_THREAD_MULTIPLE, relative to funneled (32³×256, Endeavor)",
		[]string{"nodes"}, lead(nodeCounts), r.approaches(appApps...),
		func(a sim.Approach) (col []string) {
			for _, nodes := range nodeCounts {
				ref := r.dslash(prof, a, nodes, smallLattice, iters)
				var tg float64
				cfg := r.config(prof, a, nodes*prof.RanksPerNode)
				cfg.ThreadLevel = sim.Multiple
				bench.Run(cfg, func(env *sim.Env) {
					s := qcd.RunDslashThreadGroups(env, smallLattice, 4, 1, iters)
					if env.Rank() == 0 {
						tg = s
					}
				})
				col = append(col, fmt.Sprintf("%.3f", ref.Total/tg))
			}
			return col
		})
}

// ---- FFT (§5.2) ----

// fftRun runs the pipelined 1-D FFT with perNode points per node and
// returns rank 0's time split.
func (r *runner) fftRun(prof *model.Profile, a sim.Approach, nodes, perNode, segments, iters int) fft.Split {
	var sp fft.Split
	bench.Run(r.config(prof, a, nodes*prof.RanksPerNode), func(env *sim.Env) {
		s := fft.RunPipelined(env, perNode/prof.RanksPerNode, segments, 1, iters)
		if env.Rank() == 0 {
			sp = s
		}
	})
	return sp
}

// fftSplit is Table 2: the pipelined FFT time split on the Xeon Phi
// cluster, baseline versus offload, with 8 pipeline segments.
func (r *runner) fftSplit(iters int) {
	prof := model.EndeavorPhi()
	t := bench.NewTable("Table 2: FFT time split, 2^25 points/node, Xeon Phi cluster (ms)",
		"nodes",
		"base.internal", "base.post", "base.wait", "base.misc", "base.total",
		"off.internal", "off.post", "off.wait", "off.misc", "off.total",
		"compute.slowdown%", "post.reduction%", "wait.reduction%")
	ms := func(ns float64) string { return fmt.Sprintf("%.3f", ns/1e6) }
	for _, nodes := range []int{2, 4, 8, 16, 32} {
		b := r.fftRun(prof, sim.Baseline, nodes, 1<<25, 8, iters)
		o := r.fftRun(prof, sim.Offload, nodes, 1<<25, 8, iters)
		t.Add(nodes,
			ms(b.Internal), ms(b.Post), ms(b.Wait), ms(b.Misc), ms(b.Total),
			ms(o.Internal), ms(o.Post), ms(o.Wait), ms(o.Misc), ms(o.Total),
			f1(100*(o.Internal/b.Internal-1)), f1(100*(1-o.Post/b.Post)), f1(100*(1-o.Wait/b.Wait)))
	}
	r.emit(t)
}

// fftScaling is Fig 13: FFT weak scaling in GFLOP/s.
func (r *runner) fftScaling(prof *model.Profile, perNode int, nodeCounts []int, segments, iters int, own ...sim.Approach) {
	r.tabulate(fmt.Sprintf("Fig 13 (%s): 1-D FFT weak scaling, %d points/node (GFLOP/s)", prof.Name, perNode),
		[]string{"nodes"}, lead(nodeCounts), r.approaches(own...),
		func(a sim.Approach) (col []string) {
			for _, nodes := range nodeCounts {
				sp := r.fftRun(prof, a, nodes, perNode, segments, iters)
				col = append(col, f1(fft.Gflops(perNode*nodes, sp.Total)))
			}
			return col
		})
}

// ---- CNN (§5.3) ----

// cnnTraining is Fig 14: hybrid-parallel CNN training throughput
// (data-parallel convolutions with overlappable gradient all-reduces,
// model-parallel fully-connected layers with synchronous all-to-alls).
func (r *runner) cnnTraining(iters int) {
	prof := model.Endeavor()
	net := cnn.VGGLike()
	apps := r.approaches(appApps...)
	t := bench.NewTable("Fig 14: CNN hybrid-parallel training (images/s), minibatch 256, Endeavor",
		append(append([]string{"nodes"}, names(apps)...), "offload/baseline")...)
	for _, nodes := range []int{1, 2, 4, 8, 16, 32, 64} {
		cells := []any{nodes}
		var base, off float64
		for _, a := range apps {
			var per float64
			bench.Run(r.config(prof, a, nodes*prof.RanksPerNode), func(env *sim.Env) {
				s := cnn.RunHybrid(env, net, 2, iters)
				if env.Rank() == 0 {
					per = s
				}
			})
			cells = append(cells, f1(cnn.ImagesPerSec(net, per)))
			switch a {
			case sim.Baseline:
				base = per
			case sim.Offload:
				off = per
			}
		}
		t.Add(append(cells, fmt.Sprintf("%.2f", base/off))...)
	}
	r.emit(t)
}
