package bench

import (
	"fmt"
	"sort"

	"mpioffload/internal/fault"
	"mpioffload/internal/obs"
	"mpioffload/internal/obs/critpath"
	"mpioffload/mpi"
	"mpioffload/sim"
)

// ChaosSpec is one cell of the chaos sweep: a fault plan against one
// topology and approach, plus the recovery behaviour the plan is expected
// to provoke (an expectation that fails becomes a violation in the result).
type ChaosSpec struct {
	Topo string // axis label, e.g. "fattree:arity=4,oversub=2,trunks=2"
	Plan string // "drop" | "trunkdown" | "flap" | "crash"

	Fault   *fault.Plan
	FaultAt float64 // virtual time of the injected failure (0 = from start)
	Crash   bool    // the plan kills the last rank: survivors must shrink

	ExpectRetransmits bool // the plan must provoke retransmissions
	ExpectReroute     bool // traffic must steer around a dead link
	ExpectLinkStalls  bool // a transient outage must stall packets
}

// ChaosLinkDrops is one link's count of packets lost while it was failed.
type ChaosLinkDrops struct {
	Link  string `json:"link"`
	Drops int64  `json:"drops"`
}

// ChaosCellResult is one cell's outcome. Violations is empty when every
// run invariant held: all operations completed or carried an error, the
// exactly-once stream arrived intact, the post-fault reduction was correct
// (over the shrunk group for crash cells), and the plan provoked the
// recovery machinery it was expected to.
type ChaosCellResult struct {
	Topo     string `json:"topo"`
	Plan     string `json:"plan"`
	Approach string `json:"approach"`
	Ranks    int    `json:"ranks"`

	ElapsedNs int64   `json:"elapsed_ns"`
	DetectNs  float64 `json:"detect_ns"`  // crash cells: fault → first surfaced error
	RecoverNs float64 `json:"recover_ns"` // fault → post-fault reduction complete

	Dropped        int64            `json:"dropped"`
	LinkDrops      int64            `json:"link_drops"`
	LinkStalls     int64            `json:"link_stalls"`
	Rerouted       int64            `json:"rerouted"`
	Retransmits    int64            `json:"retransmits"`
	WatchdogTrips  int64            `json:"watchdog_trips"`
	RecoveryPathNs int64            `json:"recovery_path_ns"` // critpath recovery category
	TraceDrops     int64            `json:"trace_drops"`      // obs ring-buffer events overwritten
	FailDropLinks  []ChaosLinkDrops `json:"fail_drop_links,omitempty"`

	Violations []string `json:"violations,omitempty"`
}

// Chaos stream shape: each rank sends streamMsgs stamped eager messages to
// the rank two ahead (an offset chosen so the flows cross the link the
// trunkdown/flap plans kill on both swept topologies), paced to straddle
// the fault instant.
const (
	chaosStreamMsgs  = 30
	chaosStreamBytes = 1024
	chaosReduceElems = 16 << 10 // 128 KiB of int64: the hierarchical regime
)

// ChaosCell runs one chaos cell: an exactly-once eager stream and a large
// allreduce straddle the injected fault, crash cells detect the dead rank
// and recover by shrinking, and every invariant breach is recorded rather
// than asserted so a sweep always completes. cfg must carry the profile
// (with topology) and approach; the fault plan and a trace are attached
// here.
func ChaosCell(cfg sim.Config, ranks int, spec ChaosSpec) ChaosCellResult {
	out := ChaosCellResult{
		Topo: spec.Topo, Plan: spec.Plan, Approach: cfg.Approach.String(),
		Ranks: ranks,
	}
	bad := func(format string, args ...any) {
		out.Violations = append(out.Violations, fmt.Sprintf(format, args...))
	}

	tr := obs.NewTrace(obs.Options{})
	cfg.Ranks = ranks
	cfg.Fault = spec.Fault
	cfg.Trace = tr

	detect := make([]float64, ranks)
	recoverEnd := make([]float64, ranks)
	for i := range detect {
		detect[i] = -1
	}

	res := Run(cfg, func(env *sim.Env) {
		c := env.World
		me, n := env.Rank(), env.Size()
		victim := n - 1
		if spec.Crash && me == victim {
			return // the victim's program ends at the crash
		}

		// Phase A — exactly-once stream across the fault window (skipped in
		// crash cells, where the victim would hole the stream ring).
		if !spec.Crash {
			dst, src := (me+2)%n, (me+n-2)%n
			bufs := make([][]byte, chaosStreamMsgs)
			recvs := make([]mpi.Request, chaosStreamMsgs)
			for i := range bufs {
				bufs[i] = make([]byte, chaosStreamBytes)
				recvs[i] = c.Irecv(bufs[i], src, 1000+i)
			}
			env.ComputeTime(100_000)
			msg := make([]byte, chaosStreamBytes)
			for i := 0; i < chaosStreamMsgs; i++ {
				for j := range msg {
					msg[j] = byte(me*7 + i)
				}
				s := c.Isend(msg, dst, 1000+i)
				if st := c.Wait(&s); st.Err != nil {
					bad("rank %d stream send %d failed: %v", me, i, st.Err)
				}
				env.ComputeTime(4_000)
			}
			for i := range recvs {
				st := c.Wait(&recvs[i])
				if st.Err != nil {
					bad("rank %d stream recv %d failed: %v", me, i, st.Err)
					continue
				}
				for j := range bufs[i] {
					if bufs[i][j] != byte(src*7+i) {
						bad("rank %d stream msg %d corrupt at byte %d (duplicate or misdelivery)", me, i, j)
						break
					}
				}
			}
		}

		// Phase B — detection: survivors of a crash post a receive from the
		// dead rank and time how long the fabric takes to fail it.
		if spec.Crash {
			env.ComputeTime(spec.FaultAt + 50_000)
			if st := c.Recv(make([]byte, 64), victim, 999); st.Err == nil {
				bad("rank %d receive from dead rank %d completed cleanly", me, victim)
			}
			detect[me] = float64(env.Now())
		}

		// Phase C — recovery: a large reduction over the (possibly shrunk)
		// membership must still produce the exact answer.
		v := make([]int64, chaosReduceElems)
		for i := range v {
			v[i] = int64(me + 1)
		}
		want := int64(0)
		if spec.Crash {
			if failed := c.AckFailed(); len(failed) != 1 || failed[0] != victim {
				bad("rank %d AckFailed = %v, want [%d]", me, failed, victim)
			}
			nc := c.Shrink()
			if nc == nil {
				bad("rank %d Shrink returned nil for a survivor", me)
				return
			}
			if nc.Size() != n-1 {
				bad("rank %d shrunk comm has %d ranks, want %d", me, nc.Size(), n-1)
			}
			nc.Allreduce(mpi.Int64Bytes(v), mpi.SumInt64)
			for i := 1; i < n; i++ {
				want += int64(i)
			}
		} else {
			c.Allreduce(mpi.Int64Bytes(v), mpi.SumInt64)
			for i := 1; i <= n; i++ {
				want += int64(i)
			}
		}
		if v[0] != want || v[len(v)-1] != want {
			bad("rank %d post-fault allreduce = %d..%d, want %d", me, v[0], v[len(v)-1], want)
		}
		recoverEnd[me] = float64(env.Now())
	})

	out.ElapsedNs = int64(res.Elapsed)
	r := res.Resilience
	out.Dropped = r.Dropped
	out.LinkDrops = r.LinkDrops
	out.LinkStalls = r.LinkStalls
	out.Rerouted = r.Rerouted
	out.Retransmits = r.Retransmits
	out.WatchdogTrips = r.WatchdogTrips
	out.TraceDrops = res.Metrics.EventsDropped

	for _, l := range res.Metrics.Links {
		if l.FailDrops > 0 {
			out.FailDropLinks = append(out.FailDropLinks, ChaosLinkDrops{Link: l.Name, Drops: l.FailDrops})
		}
	}
	sort.Slice(out.FailDropLinks, func(i, j int) bool {
		return out.FailDropLinks[i].Link < out.FailDropLinks[j].Link
	})

	rep := critpath.Analyze(tr)[0]
	out.RecoveryPathNs = rep.Ns[critpath.Recovery]
	if rep.Sum() != rep.Total {
		bad("critical-path attribution no longer sums: %d vs %d", rep.Sum(), rep.Total)
	}

	if spec.Crash {
		min, max := -1.0, 0.0
		for i := 0; i < ranks-1; i++ {
			if detect[i] >= 0 && (min < 0 || detect[i] < min) {
				min = detect[i]
			}
			if recoverEnd[i] > max {
				max = recoverEnd[i]
			}
		}
		if min < 0 {
			bad("no survivor detected the crash")
		} else {
			out.DetectNs = min - spec.FaultAt
		}
		out.RecoverNs = max - spec.FaultAt
	} else {
		max := 0.0
		for _, e := range recoverEnd {
			if e > max {
				max = e
			}
		}
		out.RecoverNs = max - spec.FaultAt
	}

	if spec.ExpectRetransmits && out.Retransmits == 0 {
		bad("plan %s provoked no retransmissions", spec.Plan)
	}
	if spec.ExpectReroute && out.Rerouted == 0 {
		bad("plan %s rerouted no traffic around the dead link", spec.Plan)
	}
	if spec.ExpectLinkStalls && out.LinkStalls == 0 {
		bad("plan %s stalled no packets in the outage window", spec.Plan)
	}
	return out
}
