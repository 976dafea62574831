package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"mpioffload/apps/qcd"
	"mpioffload/bench"
	"mpioffload/internal/model"
	"mpioffload/internal/obs"
	"mpioffload/internal/obs/critpath"
	"mpioffload/internal/obs/telemetry"
	"mpioffload/sim"
)

// linkJitter is the fractional wire-latency noise of the sim workloads:
// small enough to keep every paper claim, large enough that each seed
// (Profile.JitterSeed) draws a different, still deterministic, timeline.
const linkJitter = 0.02

func simProfile(seed int64) *model.Profile {
	p := model.Endeavor()
	p.LinkJitter = linkJitter
	p.JitterSeed = seed
	return p
}

// simOut is one approach's share of a rep.
type simOut struct {
	virt   string // every virtual output, formatted exactly (floats round-trip)
	m      sim.Metrics
	msgs   float64 // protocol-level point-to-point sends
	fabMsg float64
	fabB   float64
	qcdNs  float64               // Dslash virtual ns per iteration (dslash only)
	host   float64               // host seconds inside the sim layer
	events int64                 // kernel events (traced runs only)
	ov     []bench.OverlapResult // p2p only
}

// simRunner times the benchmark's calls into the sim layer and, in traced
// runs, reads each run's exact kernel event count from the telemetry
// registry sim.Run binds.
type simRunner struct {
	rec *spanRec
	reg *telemetry.Registry
}

// call runs fn, which makes exactly one sim.Run, as one sim-layer span.
func (r *simRunner) call(out *simOut, fn func()) error {
	start := r.rec.now()
	fn()
	out.host += float64(r.rec.now()-start) / 1e9
	r.rec.add(layerSim, kindOther, start)
	if r.reg != nil {
		n, err := kernelEvents(r.reg)
		if err != nil {
			return err
		}
		out.events += n
	}
	return nil
}

// kernelEvents reads sim_kernel_events_total of the newest run bound to reg.
func kernelEvents(reg *telemetry.Registry) (int64, error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return 0, err
	}
	var vals map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &vals); err != nil {
		return 0, fmt.Errorf("telemetry json: %w", err)
	}
	var n float64
	if err := json.Unmarshal(vals["sim_kernel_events_total"], &n); err != nil {
		return 0, fmt.Errorf("sim_kernel_events_total: %w", err)
	}
	return int64(n), nil
}

// simWorkload describes one simulator figure point.
type simWorkload struct {
	approaches []sim.Approach
	ranks      int
	// point runs one approach's work of a rep.
	point func(r *simRunner, cfg sim.Config) (simOut, error)
	// claims checks the paper claims on one rep's outputs.
	claims func(outs map[sim.Approach]simOut, c *checker)
	// traced runs the workload's Config.Trace run (Offload) and returns the
	// tracer-derived metrics.
	traced func(cfg sim.Config) sim.Metrics
}

func (w *simWorkload) cfg(a sim.Approach, seed int64) sim.Config {
	return sim.Config{Ranks: w.ranks, Approach: a, Profile: simProfile(seed), ThreadLevel: sim.Funneled}
}

// rep runs every approach once and checks the outputs against ref (nil
// for the reference rep itself).
func (w *simWorkload) rep(r *simRunner, seed int64, ref map[sim.Approach]simOut, c *checker) (map[sim.Approach]simOut, error) {
	outs := make(map[sim.Approach]simOut, len(w.approaches))
	for _, a := range w.approaches {
		cfg := w.cfg(a, seed)
		cfg.Telemetry = r.reg
		o, err := w.point(r, cfg)
		if err != nil {
			return nil, err
		}
		c.check(o.m.WatchdogTrips == 0, "%s: %d watchdog trips", a, o.m.WatchdogTrips)
		if ref != nil {
			c.check(o.virt == ref[a].virt, "%s: virtual outputs differ from the first rep", a)
		}
		outs[a] = o
	}
	w.claims(outs, c)
	return outs, nil
}

// setupTrial times empty runs with every approach's Config.
func (w *simWorkload) setupTrial(seed int64) float64 {
	t := time.Now()
	for _, a := range w.approaches {
		sim.Run(w.cfg(a, seed), func(*sim.Env) {})
	}
	return time.Since(t).Seconds()
}

func runSimWorkload(w *simWorkload, cfg runCfg) (*report, error) {
	rep := &report{metrics: newMetricSet()}
	epoch := time.Now()
	quiet := &simRunner{rec: newSpanRec(epoch, 0)}

	var setups []float64
	if !cfg.trace {
		_, err := repeat(time.Second, 9, func(i int) error {
			setups = append(setups, w.setupTrial(cfg.seed))
			if i >= 1000 {
				return errStop
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	ref, err := w.rep(quiet, cfg.seed, nil, &rep.checks)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		rss, err := startRSS()
		if err != nil {
			return nil, err
		}
		defer rss.close()
		var runS, peaks, offRate, dirRate []float64
		_, err = repeat(cfg.budget, 3, func(int) error {
			rss.reset()
			t := time.Now()
			outs, err := w.rep(quiet, cfg.seed, ref, &rep.checks)
			if err != nil {
				return err
			}
			runS = append(runS, time.Since(t).Seconds())
			peaks = append(peaks, rss.takeMB())
			offRate = append(offRate, outs[sim.Offload].msgs/outs[sim.Offload].host)
			dirRate = append(dirRate, outs[sim.Baseline].msgs/outs[sim.Baseline].host)
			return nil
		})
		if err != nil {
			return nil, err
		}
		ms := rep.metrics
		ms.set("setup_s", "s", median(setups))
		ms.set("run_s", "s", median(runS))
		ms.set("peak_rss_mb", "MB", median(peaks))
		ms.set("msgs_per_s.offload", "1/s", median(offRate))
		ms.set("msgs_per_s.direct", "1/s", median(dirRate))
		rep.notef("samples: setup_s n=%d, run_s and msgs_per_s n=%d reps", len(setups), len(runS))
		rep.notef("run_s quartiles %.4g %.4g %.4g; setup_s quartiles %.4g %.4g %.4g",
			quantile(runS, 0.25), median(runS), quantile(runS, 0.75),
			quantile(setups, 0.25), median(setups), quantile(setups, 0.75))
		rep.notef("peak_rss_mb quartiles %.4g %.4g %.4g",
			quantile(peaks, 0.25), median(peaks), quantile(peaks, 0.75))
		return rep, nil
	}
	return rep, w.traceRun(cfg, ref, rep, epoch)
}

// traceRun is the traced run: a third of the budget untraced (the
// reference for trace.overhead), the rest with spans, the CPU profile and
// kernel telemetry on, then one Config.Trace run for the virtual
// per-layer statistics.
func (w *simWorkload) traceRun(cfg runCfg, ref map[sim.Approach]simOut, rep *report, epoch time.Time) error {
	vals := layerVals{}
	quiet := &simRunner{rec: newSpanRec(epoch, 0)}
	var plain []float64
	_, err := repeat(cfg.budget/3, 2, func(int) error {
		t := time.Now()
		_, err := w.rep(quiet, cfg.seed, ref, &rep.checks)
		plain = append(plain, time.Since(t).Seconds())
		return err
	})
	if err != nil {
		return err
	}

	// Allocation of cluster construction alone.
	ecfg := w.cfg(sim.Offload, cfg.seed)
	mem0 := readMem()
	sim.Run(ecfg, func(*sim.Env) {})
	vals["sim.setup_bytes_per_rank"] = memSince(mem0).bytes / float64(w.ranks)

	r := &simRunner{rec: newSpanRec(epoch, 1<<16), reg: telemetry.New()}
	r.rec.setOn(true)
	var traced []float64
	var events, msgs, hostSim float64
	var m sim.Metrics
	var last map[sim.Approach]simOut
	prof, err := startProfile()
	if err != nil {
		return err
	}
	mem0 = readMem()
	reps, err := repeat(cfg.budget*2/3, 2, func(int) error {
		start := r.rec.now()
		outs, err := w.rep(r, cfg.seed, ref, &rep.checks)
		if err != nil {
			return err
		}
		r.rec.add(layerHarness, kindOther, start)
		traced = append(traced, float64(r.rec.now()-start)/1e9)
		var ev int64
		for _, o := range outs {
			ev += o.events
			msgs += o.msgs
			hostSim += o.host
		}
		if last != nil {
			var prev int64
			for _, o := range last {
				prev += o.events
			}
			rep.checks.check(ev == prev, "kernel events differ between reps: %d vs %d", ev, prev)
		}
		events += float64(ev)
		last = outs
		return nil
	})
	md := memSince(mem0)
	if perr := prof.stop(vals, max(reps, 1)); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	for _, a := range w.approaches {
		m.Add(last[a].m)
	}
	n := float64(reps)
	vals["vclock.events"] = events / n
	vals["vclock.host_ns_per_event"] = hostSim * 1e9 / events
	vals["go.allocs_per_event"] = md.mallocs / events
	vals["go.alloc_bytes_per_event"] = md.bytes / events
	vals["go.allocs_per_msg"] = md.mallocs / msgs
	vals["go.gc_cycles"] = md.gcs / n
	vals["sim.span_s"] = hostSim / n
	vals["proto.eager_sends"] = float64(m.EagerSends)
	vals["proto.rdv_sends"] = float64(m.RdvSends)
	vals["proto.unexpected_hits"] = float64(m.UnexpectedHits)
	vals["proto.posted_hits"] = float64(m.PostedHits)
	vals["proto.progress_calls"] = float64(m.ProgressCalls)
	off := last[sim.Offload]
	vals["queue.cmdq_hwm"] = float64(off.m.CmdQueueHWM)
	vals["reqpool.hwm"] = float64(off.m.ReqPoolHWM)
	for _, o := range last {
		vals["fabric.msgs"] += o.fabMsg
		vals["fabric.bytes"] += o.fabB
	}
	if b, ok := last[sim.Baseline]; ok && b.qcdNs > 0 {
		vals["qcd.virt_total_ns.baseline"] = b.qcdNs
		vals["qcd.tflops.baseline"] = qcd.Tflops(dslashL, b.qcdNs)
		vals["qcd.virt_total_ns.offload"] = off.qcdNs
		vals["qcd.tflops.offload"] = qcd.Tflops(dslashL, off.qcdNs)
	}
	self := layerSelf(r.rec)
	vals["harness.span_self_s"] = float64(self[layerHarness]) / 1e9 / n
	vals["trace.overhead"] = median(traced) / median(plain)
	vals["trace.reps"] = n
	vals["trace.spans_dropped"] = float64(r.rec.drops)

	// Tracer-derived virtual statistics (duty cycle, latency histograms,
	// critical path) from one Config.Trace run of the Offload approach.
	tcfg := w.cfg(sim.Offload, cfg.seed)
	tcfg.Trace = obs.NewTrace(obs.Options{RingCap: 1 << 12})
	tm := w.traced(tcfg)
	if tm.EventsDropped > 0 {
		return fmt.Errorf("trace ring overflowed: %d events dropped", tm.EventsDropped)
	}
	vals["core.drain_batches"] = float64(tm.DrainBatches)
	vals["core.mean_batch"] = tm.MeanBatch()
	vals["core.polls_per_completion"] = tm.PollsPerCompletion()
	vals["core.duty.issue_ns"] = float64(tm.IssueNs)
	vals["core.duty.progress_ns"] = float64(tm.ProgressNs)
	vals["core.duty.idle_ns"] = float64(tm.IdleNs)
	for _, h := range []struct {
		name string
		n    int64
	}{{"queue wait", tm.QueueWaitH.Count}, {"service", tm.ServiceH.Count}} {
		if beyond(int(h.n), 0.99) < minTail {
			return fmt.Errorf("traced run: %d %s samples are too few for a p99", h.n, h.name)
		}
	}
	vals["core.queue_wait_ns.p50"] = float64(tm.QueueWaitH.P50())
	vals["core.queue_wait_ns.p99"] = float64(tm.QueueWaitH.P99())
	vals["core.service_ns.p50"] = float64(tm.ServiceH.P50())
	vals["core.service_ns.p99"] = float64(tm.ServiceH.P99())
	vals["fabric.transit_ns.p50"] = float64(tm.TransitH.P50())
	var cp [critpath.NumCategories]int64
	var total int64
	for _, r := range critpath.Analyze(tcfg.Trace) {
		for c, ns := range r.Ns {
			cp[c] += ns
		}
		total += r.Total
	}
	share := func(c critpath.Category) float64 { return ratio(float64(cp[c]), float64(total)) }
	vals["critpath.compute"] = share(critpath.Compute)
	vals["critpath.queue_wait"] = share(critpath.QueueWait)
	vals["critpath.offload_service"] = share(critpath.Service)
	vals["critpath.network"] = share(critpath.Network)
	vals["critpath.idle"] = share(critpath.ProgressGap)
	rep.notef("samples: %d untraced reps, %d traced reps; trace histograms n=%d (queue wait), n=%d (transit)",
		len(plain), reps, tm.QueueWaitH.Count, tm.TransitH.Count)
	return vals.emit(rep.metrics)
}

// ---- sim-dslash-256 ----

var dslashL = [qcd.Nd]int{32, 32, 32, 256}

const (
	dslashNodes = 256
	dslashWarm  = 1
	dslashIters = 4
)

func dslashPoint(r *simRunner, cfg sim.Config) (simOut, error) {
	var ts qcd.TimeSplit
	var res sim.Result
	var out simOut
	err := r.call(&out, func() {
		res = sim.Run(cfg, func(env *sim.Env) {
			s := qcd.RunDslash(env, dslashL, dslashWarm, dslashIters)
			if env.Rank() == 0 {
				ts = s
			}
		})
	})
	out.virt = fmt.Sprint(ts, res.Elapsed, res.RankElapsed, res.Net, res.Metrics)
	out.m = res.Metrics
	out.msgs = float64(res.Metrics.EagerSends + res.Metrics.RdvSends)
	out.fabMsg, out.fabB = float64(res.Net.Msgs), float64(res.Net.Bytes)
	out.qcdNs = ts.Total
	return out, err
}

func runDslash(cfg runCfg) (*report, error) {
	w := &simWorkload{
		approaches: []sim.Approach{sim.Baseline, sim.Offload},
		ranks:      dslashNodes * model.Endeavor().RanksPerNode,
		point:      dslashPoint,
		claims: func(outs map[sim.Approach]simOut, c *checker) {
			b, o := outs[sim.Baseline].qcdNs, outs[sim.Offload].qcdNs
			c.check(o < b, "Fig 9a: offload Dslash %.0f ns/iter is not below baseline %.0f", o, b)
		},
		traced: func(cfg sim.Config) sim.Metrics {
			return sim.Run(cfg, func(env *sim.Env) { qcd.RunDslash(env, dslashL, dslashWarm, dslashIters) }).Metrics
		},
	}
	return runSimWorkload(w, cfg)
}

// ---- sim-p2p-sweep ----

// The Fig 2/6/7 shapes between two ranks at the figure drivers' iteration
// counts: latency and overlap from 8 B to 4 MiB (crossing the 128 KiB
// eager→rendezvous switch), multithreaded latency at Fig 6's sizes.
const (
	p2pLatIters     = 20
	p2pOverlapIters = 10
	p2pMTThreads    = 16
	p2pMTIters      = 10
)

var p2pMTSizes = []int{8, 64, 512, 4 << 10, 32 << 10}

func p2pPoint(r *simRunner, cfg sim.Config) (simOut, error) {
	bench.TakeMetrics()
	var lat []bench.LatencyResult
	var ov []bench.OverlapResult
	var mt []bench.MTLatencyResult
	var out simOut
	for _, size := range bench.DefaultSizes {
		one := []int{size}
		calls := []func(){
			func() { lat = append(lat, bench.OSULatency(cfg, one, p2pLatIters)...) },
			func() { ov = append(ov, bench.OverlapP2P(cfg, one, p2pOverlapIters)...) },
		}
		for _, fn := range calls {
			if err := r.call(&out, fn); err != nil {
				return out, err
			}
		}
	}
	for _, size := range p2pMTSizes {
		one := []int{size}
		err := r.call(&out, func() {
			mt = append(mt, bench.OSUMultithreadedLatency(cfg, p2pMTThreads, one, p2pMTIters)...)
		})
		if err != nil {
			return out, err
		}
	}
	m := bench.TakeMetrics()
	res := bench.TakeResilience()
	out.virt = fmt.Sprint(lat, ov, mt, m, res)
	out.m = m
	out.m.WatchdogTrips += res.WatchdogTrips
	out.msgs = float64(m.EagerSends + m.RdvSends)
	out.ov = ov
	return out, nil
}

func runP2P(cfg runCfg) (*report, error) {
	w := &simWorkload{
		approaches: []sim.Approach{sim.Baseline, sim.Iprobe, sim.CommSelf, sim.Offload},
		ranks:      2,
		point:      p2pPoint,
		claims: func(outs map[sim.Approach]simOut, c *checker) {
			p := model.Endeavor()
			for _, o := range outs[sim.Offload].ov {
				if !p.Eager(o.Size) {
					c.check(o.OverlapPct >= 90, "Fig 2: offload overlap %.1f%% < 90%% at %d B", o.OverlapPct, o.Size)
				}
			}
		},
		traced: func(cfg sim.Config) sim.Metrics {
			// Without a telemetry registry p2pPoint cannot fail.
			out, _ := p2pPoint(&simRunner{}, cfg)
			return out.m
		},
	}
	return runSimWorkload(w, cfg)
}
