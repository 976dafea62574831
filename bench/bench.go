// Package bench implements the paper's microbenchmark methodology (§4):
// the compute-communication overlap benchmark, OSU-style latency and
// bandwidth tests, nonblocking call-overhead measurement, and the
// multithreaded (MPI_THREAD_MULTIPLE) latency test — each runnable under
// any approach and platform profile, plus plain-text/CSV table printers
// used by cmd/paperbench to regenerate every figure and table, and the
// BENCH document types with their validators (report.go).
package bench

import (
	"mpioffload/internal/model"
	"mpioffload/internal/obs"
	"mpioffload/mpi"
	"mpioffload/sim"
)

// interNode pins every rank to its own physical node, as in the paper's
// microbenchmark setup ("on 2 Endeavor Xeon nodes", "on 16 nodes"): the
// traffic under test crosses the real interconnect, never shared memory.
func interNode(cfg sim.Config) sim.Config {
	p := cfg.Profile
	if p == nil {
		p = model.Endeavor()
	}
	c := *p
	c.RanksPerNode = 1
	cfg.Profile = &c
	return cfg
}

// DefaultSizes is the message-size sweep used by the paper's
// microbenchmark figures (8 B – 4 MB).
var DefaultSizes = []int{8, 64, 512, 4 << 10, 32 << 10, 128 << 10, 512 << 10, 2 << 20, 4 << 20}

// OverlapResult is one row of the paper's Fig 2: post, overlap and wait
// time as a percentage of pure communication time, per message size.
type OverlapResult struct {
	Size       int
	CommNs     float64 // pure communication time (4 calls, no compute)
	PostPct    float64
	OverlapPct float64
	WaitPct    float64
}

// OverlapP2P runs the §4.1 point-to-point overlap benchmark between two
// ranks: each process posts Irecv+Isend to the other, and the second pass
// inserts computation equal to the measured communication time between the
// Isend and the first Wait. Overlap is the reduction in wait time.
func OverlapP2P(cfg sim.Config, sizes []int, iters int) []OverlapResult {
	cfg = interNode(cfg)
	cfg.Ranks = 2
	out := make([]OverlapResult, 0, len(sizes))
	for _, size := range sizes {
		size := size
		var res OverlapResult
		Run(cfg, func(env *Env) { overlapOne(env, size, iters, &res) })
		out = append(out, res)
	}
	return out
}

// Env is re-exported for benchmark closures.
type Env = sim.Env

func overlapOne(env *Env, size, iters int, res *OverlapResult) {
	c := env.World
	peer := 1 - env.Rank()
	sbuf := make([]byte, size)
	rbuf := make([]byte, size)
	tag := 0
	exchange := func(compute float64) (post, wait, total float64) {
		start := env.Now()
		rr := c.Irecv(rbuf, peer, tag)
		rs := c.Isend(sbuf, peer, tag)
		post = float64(env.Now() - start)
		if compute > 0 {
			env.ComputeWithProgress(compute, compute/16)
		}
		wstart := env.Now()
		c.Wait(&rr)
		c.Wait(&rs)
		wait = float64(env.Now() - wstart)
		total = float64(env.Now()-start) - compute
		tag++
		c.Barrier()
		return post, wait, total
	}
	// Warmup.
	for i := 0; i < 2; i++ {
		exchange(0)
	}
	var post1, wait1, comm float64
	for i := 0; i < iters; i++ {
		p, w, tt := exchange(0)
		post1 += p
		wait1 += w
		comm += tt
	}
	post1 /= float64(iters)
	wait1 /= float64(iters)
	comm /= float64(iters)

	var wait2 float64
	for i := 0; i < iters; i++ {
		_, w, _ := exchange(comm)
		wait2 += w
	}
	wait2 /= float64(iters)

	if env.Rank() == 0 {
		overlap := wait1 - wait2
		if overlap < 0 {
			overlap = 0
		}
		*res = OverlapResult{
			Size:       size,
			CommNs:     comm,
			PostPct:    pct(post1, comm),
			OverlapPct: pct(overlap, comm),
			WaitPct:    pct(wait2, comm),
		}
	}
}

func pct(x, of float64) float64 {
	if of <= 0 {
		return 0
	}
	p := 100 * x / of
	if p > 100 {
		p = 100
	}
	return p
}

// PostTimeResult is one row of Fig 4: the time an application thread
// spends inside a nonblocking MPI_Isend, per message size.
type PostTimeResult struct {
	Size   int
	PostNs float64
}

// IsendPostTime measures the Isend call time in an OSU-style ping-pong
// with nonblocking calls (paper §4.2, Fig 4).
func IsendPostTime(cfg sim.Config, sizes []int, iters int) []PostTimeResult {
	cfg = interNode(cfg)
	cfg.Ranks = 2
	out := make([]PostTimeResult, 0, len(sizes))
	for _, size := range sizes {
		size := size
		var post float64
		Run(cfg, func(env *Env) {
			c := env.World
			peer := 1 - env.Rank()
			sbuf := make([]byte, size)
			rbuf := make([]byte, size)
			sum, n := 0.0, 0
			for i := 0; i < iters+2; i++ {
				rr := c.Irecv(rbuf, peer, i)
				t0 := env.Now()
				rs := c.Isend(sbuf, peer, i)
				dt := float64(env.Now() - t0)
				c.Waitall(&rr, &rs)
				c.Barrier()
				if i >= 2 { // skip warmup
					sum += dt
					n++
				}
			}
			if env.Rank() == 0 {
				post = sum / float64(n)
			}
		})
		out = append(out, PostTimeResult{Size: size, PostNs: post})
	}
	return out
}

// LatencyResult is one row of Fig 7a/8a: OSU one-way latency.
type LatencyResult struct {
	Size      int
	LatencyNs float64
}

// OSULatency runs the standard OSU ping-pong latency test with blocking
// Send/Recv and reports one-way latency (§4.5).
func OSULatency(cfg sim.Config, sizes []int, iters int) []LatencyResult {
	cfg = interNode(cfg)
	cfg.Ranks = 2
	out := make([]LatencyResult, 0, len(sizes))
	for _, size := range sizes {
		size := size
		var lat float64
		Run(cfg, func(env *Env) {
			c := env.World
			buf := make([]byte, size)
			start := env.Now()
			total := 0.0
			for i := 0; i < iters+2; i++ {
				if i == 2 {
					start = env.Now()
				}
				if env.Rank() == 0 {
					c.Send(buf, 1, i)
					c.Recv(buf, 1, i)
				} else {
					c.Recv(buf, 0, i)
					c.Send(buf, 0, i)
				}
			}
			total = float64(env.Now() - start)
			if env.Rank() == 0 {
				lat = total / float64(iters) / 2
			}
		})
		out = append(out, LatencyResult{Size: size, LatencyNs: lat})
	}
	return out
}

// BandwidthResult is one row of Fig 7b/8b: OSU unidirectional bandwidth.
type BandwidthResult struct {
	Size int
	GBps float64 // bytes per nanosecond == GB/s
}

// OSUBandwidth runs the OSU unidirectional bandwidth test: windows of
// nonblocking sends answered by a single ack (§4.5).
func OSUBandwidth(cfg sim.Config, sizes []int, window, windows int) []BandwidthResult {
	cfg = interNode(cfg)
	cfg.Ranks = 2
	out := make([]BandwidthResult, 0, len(sizes))
	for _, size := range sizes {
		size := size
		var bw float64
		Run(cfg, func(env *Env) {
			c := env.World
			bufs := make([][]byte, window)
			for i := range bufs {
				bufs[i] = make([]byte, size)
			}
			ack := make([]byte, 4)
			start := env.Now()
			for w := 0; w < windows; w++ {
				reqs := make([]*mpi.Request, window)
				if env.Rank() == 0 {
					for i := 0; i < window; i++ {
						r := c.Isend(bufs[i], 1, w)
						reqs[i] = &r
					}
					c.Waitall(reqs...)
					c.Recv(ack, 1, 1_000_000+w)
				} else {
					for i := 0; i < window; i++ {
						r := c.Irecv(bufs[i], 0, w)
						reqs[i] = &r
					}
					c.Waitall(reqs...)
					c.Send(ack, 0, 1_000_000+w)
				}
			}
			if env.Rank() == 0 {
				elapsed := float64(env.Now() - start)
				bw = float64(size*window*windows) / elapsed
			}
		})
		out = append(out, BandwidthResult{Size: size, GBps: bw})
	}
	return out
}

// MTLatencyResult is one row of Fig 6: multithreaded OSU latency with a
// given number of concurrently communicating thread pairs.
type MTLatencyResult struct {
	Size      int
	LatencyNs float64
}

// OSUMultithreadedLatency runs the OSU multithreaded latency benchmark
// (§4.4, Fig 6): `threads` pairs of threads (one per rank) ping-pong in
// parallel under MPI_THREAD_MULTIPLE; the mean one-way latency is
// reported.
func OSUMultithreadedLatency(cfg sim.Config, threads int, sizes []int, iters int) []MTLatencyResult {
	cfg = interNode(cfg)
	cfg.Ranks = 2
	cfg.ThreadLevel = sim.Multiple
	out := make([]MTLatencyResult, 0, len(sizes))
	for _, size := range sizes {
		size := size
		var lat float64
		Run(cfg, func(env *Env) {
			sum := make([]float64, threads)
			env.ParallelN(threads, func(th *sim.Thread) {
				c := th.Comm
				buf := make([]byte, size)
				tagBase := 10_000 * (th.ID + 1)
				start := th.Now()
				for i := 0; i < iters+2; i++ {
					if i == 2 {
						start = th.Now()
					}
					if env.Rank() == 0 {
						c.Send(buf, 1, tagBase+i)
						c.Recv(buf, 1, tagBase+i)
					} else {
						c.Recv(buf, 0, tagBase+i)
						c.Send(buf, 0, tagBase+i)
					}
				}
				sum[th.ID] = float64(th.Now()-start) / float64(iters) / 2
			})
			if env.Rank() == 0 {
				total := 0.0
				for _, s := range sum {
					total += s
				}
				lat = total / float64(threads)
			}
		})
		out = append(out, MTLatencyResult{Size: size, LatencyNs: lat})
	}
	return out
}

// MTScaleResult is one row of the enqueue-scaling sweep: the mean
// application-side post cost with a given number of concurrently
// submitting threads per rank. Under offload this must stay flat at
// EnqueueCost — the sharded command queue gives every registered thread a
// private SPSC shard, so adding submitters adds no serialization.
type MTScaleResult struct {
	Threads   int     `json:"threads"`
	PostNs    float64 `json:"post_ns"`
	MeanBatch float64 `json:"mean_batch"`
}

// MTPostScaling measures the mean Isend post time as the submitting
// thread count grows (the enqueue half of Fig 6's contention story).
// MeanBatch reports the offload thread's mean drain batch size, which
// grows with thread count as commands arrive back-to-back.
func MTPostScaling(cfg sim.Config, threadCounts []int, iters int) []MTScaleResult {
	cfg = interNode(cfg)
	cfg.Ranks = 2
	cfg.ThreadLevel = sim.Multiple
	out := make([]MTScaleResult, 0, len(threadCounts))
	for _, threads := range threadCounts {
		threads := threads
		var post float64
		// A trace recorder activates the offload thread's duty-cycle
		// accounting, which is where MeanBatch comes from.
		cfg.Trace = obs.NewTrace(obs.Options{})
		res := Run(cfg, func(env *Env) {
			sum := make([]float64, threads)
			cnt := make([]int, threads)
			env.ParallelN(threads, func(th *sim.Thread) {
				c := th.Comm
				buf := make([]byte, 64)
				tagBase := 10_000 * (th.ID + 1)
				if env.Rank() == 0 {
					for i := 0; i < iters; i++ {
						t0 := th.Now()
						r := c.Isend(buf, 1, tagBase+i)
						sum[th.ID] += float64(th.Now() - t0)
						cnt[th.ID]++
						c.Wait(&r)
					}
				} else {
					rbuf := make([]byte, 64)
					for i := 0; i < iters; i++ {
						r := c.Irecv(rbuf, 0, tagBase+i)
						c.Wait(&r)
					}
				}
			})
			if env.Rank() == 0 {
				s, n := 0.0, 0
				for i := range sum {
					s += sum[i]
					n += cnt[i]
				}
				post = s / float64(n)
			}
		})
		out = append(out, MTScaleResult{Threads: threads, PostNs: post, MeanBatch: res.Metrics.MeanBatch()})
	}
	return out
}

// MTAgentCell is one (threads, agents) cell of the agent-scaling sweep:
// post cost, drain batching, the offload agents' duty-cycle split, polling
// efficiency, and completion throughput in virtual time. PostsPerMs is the
// figure the multi-agent engine moves: with a saturated single agent,
// adding a second (each owning half the submission shards and its own
// request pool) nearly doubles the service rate, while PostNs stays flat
// at EnqueueCost — submission was never the bottleneck.
type MTAgentCell struct {
	Threads            int     `json:"threads"`
	Agents             int     `json:"agents"`
	PostNs             float64 `json:"post_ns"`
	MeanBatch          float64 `json:"mean_batch"`
	DutyIssue          float64 `json:"duty_issue"`
	DutyProgress       float64 `json:"duty_progress"`
	DutyIdle           float64 `json:"duty_idle"`
	PollsPerCompletion float64 `json:"polls_per_completion"`
	PostsPerMs         float64 `json:"posts_per_ms"`
}

// MTAgentScaling runs the threads × agents grid: every thread posts
// `iters` nonblocking sends back-to-back (waits batched at the end, so the
// offload agents — not slot recycling — are the bottleneck) against
// matching receives on the peer rank. Cells are emitted in (threads,
// agents) ascending order, the order the validator requires.
func MTAgentScaling(cfg sim.Config, threadCounts, agentCounts []int, iters int) []MTAgentCell {
	cfg = interNode(cfg)
	cfg.Ranks = 2
	cfg.ThreadLevel = sim.Multiple
	base := cfg.Profile
	out := make([]MTAgentCell, 0, len(threadCounts)*len(agentCounts))
	for _, threads := range threadCounts {
		for _, agents := range agentCounts {
			threads, agents := threads, agents
			p := *base
			p.Agents = agents
			cfg.Profile = &p
			cfg.Trace = obs.NewTrace(obs.Options{})
			var post float64
			res := Run(cfg, func(env *Env) {
				sum := make([]float64, threads)
				cnt := make([]int, threads)
				env.ParallelN(threads, func(th *sim.Thread) {
					c := th.Comm
					tagBase := 10_000 * (th.ID + 1)
					reqs := make([]mpi.Request, iters)
					if env.Rank() == 0 {
						buf := make([]byte, 64)
						for i := 0; i < iters; i++ {
							t0 := th.Now()
							reqs[i] = c.Isend(buf, 1, tagBase+i)
							sum[th.ID] += float64(th.Now() - t0)
							cnt[th.ID]++
						}
					} else {
						rbuf := make([]byte, 64)
						for i := 0; i < iters; i++ {
							reqs[i] = c.Irecv(rbuf, 0, tagBase+i)
						}
					}
					for i := range reqs {
						c.Wait(&reqs[i])
					}
				})
				if env.Rank() == 0 {
					s, n := 0.0, 0
					for i := range sum {
						s += sum[i]
						n += cnt[i]
					}
					post = s / float64(n)
				}
			})
			di, dp, dl := res.Metrics.DutyCycle()
			cell := MTAgentCell{
				Threads:            threads,
				Agents:             agents,
				PostNs:             post,
				MeanBatch:          res.Metrics.MeanBatch(),
				DutyIssue:          di,
				DutyProgress:       dp,
				DutyIdle:           dl,
				PollsPerCompletion: res.Metrics.PollsPerCompletion(),
			}
			if res.Elapsed > 0 {
				cell.PostsPerMs = float64(res.Metrics.Completed) / (float64(res.Elapsed) / 1e6)
			}
			out = append(out, cell)
		}
	}
	return out
}
