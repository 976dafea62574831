package bench

import (
	"fmt"
	"math"
	"sort"
)

// NetSchema versions BENCH_net.json; bump on incompatible change. v1
// records, per transport backend, the wall-clock ping-pong latency sweep
// and the multithreaded message-rate sweep (Direct global-lock baseline
// vs Offload), plus the sim-vs-real residual rows that anchor the
// simulator's virtual-time predictions against real sockets.
const NetSchema = "net/v1"

// PingPongRow is one message size of a backend's latency sweep: mean
// one-way wall-clock latency of a single-threaded blocking ping-pong.
type PingPongRow struct {
	Size      int     `json:"size"`
	LatencyNs float64 `json:"latency_ns"`
}

// RateRow is one thread count of a backend's message-rate sweep: total
// 64-byte messages per second moved by `threads` flooding submitters,
// under the Direct (global lock, MPI_THREAD_MULTIPLE) and Offload
// (command queue + agent) modes.
type RateRow struct {
	Threads        int     `json:"threads"`
	DirectMsgsSec  float64 `json:"direct_msgs_per_sec"`
	OffloadMsgsSec float64 `json:"offload_msgs_per_sec"`
}

// NetBackend is one transport backend's measurements.
type NetBackend struct {
	Backend  string        `json:"backend"` // loopback | unix | tcp
	PingPong []PingPongRow `json:"pingpong"`
	Rate     []RateRow     `json:"rate"`
}

// NetResidual compares one microbenchmark across the simulator (virtual
// ns on the modeled Endeavor fabric) and a real backend (wall-clock ns on
// the measuring host's sockets). Ratio = real/sim: the residual between
// what the model predicts for its hardware and what the localhost wire
// delivers.
type NetResidual struct {
	Bench   string  `json:"bench"`
	Backend string  `json:"backend"`
	SimNs   float64 `json:"sim_ns"`
	RealNs  float64 `json:"real_ns"`
	Ratio   float64 `json:"ratio"`
}

// NetReport is the BENCH_net.json document.
type NetReport struct {
	Schema    string        `json:"schema"`
	Backends  []NetBackend  `json:"backends"`
	Residuals []NetResidual `json:"residuals"`
}

// Validate checks a report's structure — schema tag, non-empty sweeps,
// ascending axes, positive measurements — and, on documents that reach the
// saturated GateThreads rows, the perf gate: offload throughput must not
// fall below the global-lock baseline.
func (rep *NetReport) Validate() error {
	if rep.Schema != NetSchema {
		return fmt.Errorf("schema %q, want %q", rep.Schema, NetSchema)
	}
	if len(rep.Backends) == 0 {
		return fmt.Errorf("no backends")
	}
	gated := false
	for _, b := range rep.Backends {
		if b.Backend == "" {
			return fmt.Errorf("backend with empty name")
		}
		if len(b.PingPong) == 0 || len(b.Rate) == 0 {
			return fmt.Errorf("%s: empty sweep: %d pingpong rows, %d rate rows",
				b.Backend, len(b.PingPong), len(b.Rate))
		}
		if !sort.SliceIsSorted(b.PingPong, func(i, j int) bool { return b.PingPong[i].Size < b.PingPong[j].Size }) {
			return fmt.Errorf("%s: pingpong sizes not ascending", b.Backend)
		}
		if !sort.SliceIsSorted(b.Rate, func(i, j int) bool { return b.Rate[i].Threads < b.Rate[j].Threads }) {
			return fmt.Errorf("%s: rate thread counts not ascending", b.Backend)
		}
		for _, r := range b.PingPong {
			if r.Size < 1 || r.LatencyNs <= 0 {
				return fmt.Errorf("%s: bad pingpong row %+v", b.Backend, r)
			}
		}
		for _, r := range b.Rate {
			if r.Threads < 1 || r.DirectMsgsSec <= 0 || r.OffloadMsgsSec <= 0 {
				return fmt.Errorf("%s: bad rate row %+v", b.Backend, r)
			}
			if r.Threads == GateThreads {
				gated = true
				if r.OffloadMsgsSec < r.DirectMsgsSec {
					return fmt.Errorf("perf gate: %s offload %.0f msgs/s < direct %.0f at %d threads",
						b.Backend, r.OffloadMsgsSec, r.DirectMsgsSec, GateThreads)
				}
			}
		}
	}
	if gated && len(rep.Residuals) == 0 {
		return fmt.Errorf("full-size document has no sim-vs-real residuals")
	}
	for _, r := range rep.Residuals {
		if r.Bench == "" || r.Backend == "" || r.SimNs <= 0 || r.RealNs <= 0 || r.Ratio <= 0 {
			return fmt.Errorf("bad residual row %+v", r)
		}
		if math.Abs(r.Ratio-r.RealNs/r.SimNs) > 1e-6*r.Ratio {
			return fmt.Errorf("residual %s/%s: ratio %.4f != real/sim %.4f",
				r.Bench, r.Backend, r.Ratio, r.RealNs/r.SimNs)
		}
	}
	return nil
}

// Metrics flattens the document. Everything in it is wall clock from real
// sockets, so all gating rows use the wide band; the sim-vs-real residual
// ratios are informational — they document the gap between modeled and
// local hardware, not a quantity with a "right" direction.
func (rep *NetReport) Metrics() []Metric {
	var m metrics
	for _, b := range rep.Backends {
		for _, r := range b.PingPong {
			m.add(ClassWall, LowerBetter, r.LatencyNs, "net.pingpong_ns{backend=%s,size=%d}", b.Backend, r.Size)
		}
		for _, r := range b.Rate {
			m.add(ClassWall, HigherBetter, r.DirectMsgsSec, "net.direct_msgs_per_sec{backend=%s,threads=%d}", b.Backend, r.Threads)
			m.add(ClassWall, HigherBetter, r.OffloadMsgsSec, "net.offload_msgs_per_sec{backend=%s,threads=%d}", b.Backend, r.Threads)
		}
	}
	for _, r := range rep.Residuals {
		m.add(ClassInfo, LowerBetter, r.Ratio, "net.residual_ratio{bench=%s,backend=%s}", r.Bench, r.Backend)
	}
	return m
}
