package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMTScaleValidatorRejects: the validator must catch structural damage.
func TestMTScaleValidatorRejects(t *testing.T) {
	cell := func(threads, agents int, postsPerMs float64) MTAgentCell {
		return MTAgentCell{
			Threads: threads, Agents: agents, PostNs: 140, MeanBatch: 1,
			DutyIssue: 0.3, DutyProgress: 0.3, DutyIdle: 0.4,
			PollsPerCompletion: 2, PostsPerMs: postsPerMs,
		}
	}
	good := func() *MTScaleReport {
		return &MTScaleReport{
			Schema:  MTScaleSchema,
			Profile: "endeavor-xeon",
			Sim:     []MTScaleResult{{Threads: 1, PostNs: 140, MeanBatch: 1}},
			RT: []RTScaleRow{
				{Threads: 1, ShardedNsPerPost: 100, SharedNsPerPost: 110},
				{Threads: 16, ShardedNsPerPost: 120, SharedNsPerPost: 400},
			},
			Agents: []MTAgentCell{
				cell(1, 1, 50),
				cell(16, 1, 100), cell(16, 2, 150),
			},
		}
	}
	cases := map[string]func(*MTScaleReport){
		"wrong schema":    func(r *MTScaleReport) { r.Schema = "mtscale/v1" },
		"missing profile": func(r *MTScaleReport) { r.Profile = "" },
		"empty sim":       func(r *MTScaleReport) { r.Sim = nil },
		"empty rt":        func(r *MTScaleReport) { r.RT = nil },
		"empty agents":    func(r *MTScaleReport) { r.Agents = nil },
		"zero post":       func(r *MTScaleReport) { r.Sim[0].PostNs = 0 },
		"zero batch":      func(r *MTScaleReport) { r.Sim[0].MeanBatch = 0 },
		"negative rt":     func(r *MTScaleReport) { r.RT[0].ShardedNsPerPost = -1 },
		"descending threads": func(r *MTScaleReport) {
			r.Sim = append(r.Sim, MTScaleResult{Threads: 1, PostNs: 140, MeanBatch: 1})
			r.Sim[0].Threads = 2
		},
		"agent cells out of order": func(r *MTScaleReport) {
			r.Agents[1], r.Agents[2] = r.Agents[2], r.Agents[1]
		},
		"duty fraction out of range": func(r *MTScaleReport) { r.Agents[0].DutyIdle = 1.5 },
		"zero throughput":            func(r *MTScaleReport) { r.Agents[0].PostsPerMs = 0 },
		"perf gate: sharded slower than shared at 16": func(r *MTScaleReport) {
			r.RT[1].ShardedNsPerPost = r.RT[1].SharedNsPerPost + 1
		},
		"perf gate: agent speedup below 1.2x": func(r *MTScaleReport) {
			r.Agents[2].PostsPerMs = r.Agents[1].PostsPerMs * 1.1
		},
		"perf gate: missing 1-agent cell at 16": func(r *MTScaleReport) {
			r.Agents = []MTAgentCell{cell(16, 2, 150)}
		},
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("baseline report should validate: %v", err)
	}
	for name, corrupt := range cases {
		r := good()
		corrupt(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: validator accepted a corrupt report", name)
		}
	}
}

// TestTopoValidatorRejects: the validator must catch structural damage and
// a regressed headline claim.
func TestTopoValidatorRejects(t *testing.T) {
	const ft2 = "fattree:arity=4,oversub=2"
	good := func() *TopoReport {
		return &TopoReport{
			Schema: TopoSchema, Profile: "endeavor-xeon", Nodes: 16, RanksPerNode: 2,
			Rows: []TopoCollResult{
				{Topo: "flat", Algo: "ring", Bytes: 1 << 20, MeanNs: 700_000},
				{Topo: ft2, Algo: "ring", Bytes: 1 << 20, MeanNs: 660_000, MaxLinkUtil: 0.4, MaxQueue: 3},
				{Topo: ft2, Algo: "hier", Bytes: 1 << 20, MeanNs: 560_000, MaxLinkUtil: 0.5, MaxQueue: 4},
			},
		}
	}
	cases := map[string]func(*TopoReport){
		"wrong schema":     func(r *TopoReport) { r.Schema = "topo/v0" },
		"missing profile":  func(r *TopoReport) { r.Profile = "" },
		"bad shape":        func(r *TopoReport) { r.Nodes = 1 },
		"empty sweep":      func(r *TopoReport) { r.Rows = nil },
		"zero mean":        func(r *TopoReport) { r.Rows[0].MeanNs = 0 },
		"unknown algo":     func(r *TopoReport) { r.Rows[0].Algo = "bcast" },
		"flat contention":  func(r *TopoReport) { r.Rows[0].MaxLinkUtil = 0.3 },
		"hier regression":  func(r *TopoReport) { r.Rows[2].MeanNs = 700_000 },
		"ring row missing": func(r *TopoReport) { r.Rows = r.Rows[2:] },
		"no hier evidence": func(r *TopoReport) { r.Rows = r.Rows[:2] },
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("baseline report should validate: %v", err)
	}
	for name, corrupt := range cases {
		r := good()
		corrupt(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: validator accepted a corrupt report", name)
		}
	}
}

// TestOversubscribedFatTree pins the topology-axis string matcher.
func TestOversubscribedFatTree(t *testing.T) {
	for s, want := range map[string]bool{
		"fattree:arity=4,oversub=2":   true,
		"fattree:arity=8,oversub=2.5": true,
		"fattree:arity=4,oversub=1":   false,
		"fattree":                     false,
		"flat":                        false,
		"dragonfly:group=4":           false,
	} {
		if got := oversubscribedFatTree(s); got != want {
			t.Errorf("oversubscribedFatTree(%q) = %v, want %v", s, got, want)
		}
	}
}

// TestChaosValidatorRejects: the validator must catch structural damage,
// surviving violations, and a regressed detection headline.
func TestChaosValidatorRejects(t *testing.T) {
	good := func() *ChaosReport {
		rep := &ChaosReport{Schema: ChaosSchema, Profile: "endeavor-xeon", Ranks: 8, Seed: 1, WatchdogNs: 600_000}
		for _, ts := range []string{"fattree:arity=4,oversub=2,trunks=2", "dragonfly:group=2"} {
			for _, plan := range []string{"drop", "trunkdown", "flap", "crash"} {
				for _, a := range []string{"baseline", "offload"} {
					c := ChaosCellResult{
						Topo: ts, Plan: plan, Approach: a, Ranks: 8, ElapsedNs: 1_000_000,
					}
					switch plan {
					case "drop":
						c.Retransmits = 10
						c.RecoveryPathNs = 5000
					case "trunkdown":
						c.Rerouted = 40
						c.LinkDrops = 3
						c.FailDropLinks = []ChaosLinkDrops{{Link: "leaf0.up0", Drops: 3}}
					case "flap":
						c.LinkStalls = 20
					case "crash":
						c.DetectNs = 650_000
						c.RecoverNs = 730_000
						if a == "offload" {
							c.DetectNs = 655_000
						}
					}
					rep.Cells = append(rep.Cells, c)
				}
			}
		}
		return rep
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("baseline report should validate: %v", err)
	}
	cases := map[string]func(*ChaosReport){
		"wrong schema":      func(r *ChaosReport) { r.Schema = "chaos/v0" },
		"missing profile":   func(r *ChaosReport) { r.Profile = "" },
		"too few cells":     func(r *ChaosReport) { r.Cells = r.Cells[:8] },
		"violation":         func(r *ChaosReport) { r.Cells[0].Violations = []string{"boom"} },
		"no retransmits":    func(r *ChaosReport) { r.Cells[0].Retransmits = 0 },
		"no reroute":        func(r *ChaosReport) { r.Cells[2].Rerouted = 0 },
		"unattributed drop": func(r *ChaosReport) { r.Cells[2].FailDropLinks = nil },
		"no stalls":         func(r *ChaosReport) { r.Cells[4].LinkStalls = 0 },
		"undetected crash":  func(r *ChaosReport) { r.Cells[6].DetectNs = 0 },
		"slow offload detection": func(r *ChaosReport) {
			for i := range r.Cells {
				if r.Cells[i].Plan == "crash" && r.Cells[i].Approach == "offload" {
					r.Cells[i].DetectNs = 2_000_000
				}
			}
		},
		"no recovery attribution": func(r *ChaosReport) {
			for i := range r.Cells {
				r.Cells[i].RecoveryPathNs = 0
			}
		},
	}
	for name, corrupt := range cases {
		r := good()
		corrupt(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: validator accepted a corrupt report", name)
		}
	}
}

func goodNet() *NetReport {
	return &NetReport{
		Schema: NetSchema,
		Backends: []NetBackend{{
			Backend:  "unix",
			PingPong: []PingPongRow{{Size: 8, LatencyNs: 21_000}, {Size: 4096, LatencyNs: 30_000}},
			Rate: []RateRow{
				{Threads: 1, DirectMsgsSec: 200_000, OffloadMsgsSec: 180_000},
				{Threads: GateThreads, DirectMsgsSec: 300_000, OffloadMsgsSec: 330_000},
			},
		}},
		Residuals: []NetResidual{{Bench: "pingpong/8", Backend: "unix", SimNs: 1200, RealNs: 21_000, Ratio: 17.5}},
	}
}

// TestNetSchema: a net/v1 document flattens to wall-clock latency and rate
// metrics plus info-class residual ratios, in document order.
func TestNetSchema(t *testing.T) {
	type want struct {
		class MetricClass
		dir   Direction
	}
	wants := map[string]want{
		"net.pingpong_ns{backend=unix,size=8}":              {ClassWall, LowerBetter},
		"net.pingpong_ns{backend=unix,size=4096}":           {ClassWall, LowerBetter},
		"net.direct_msgs_per_sec{backend=unix,threads=1}":   {ClassWall, HigherBetter},
		"net.offload_msgs_per_sec{backend=unix,threads=1}":  {ClassWall, HigherBetter},
		"net.direct_msgs_per_sec{backend=unix,threads=16}":  {ClassWall, HigherBetter},
		"net.offload_msgs_per_sec{backend=unix,threads=16}": {ClassWall, HigherBetter},
		"net.residual_ratio{bench=pingpong/8,backend=unix}": {ClassInfo, LowerBetter},
	}
	ms := goodNet().Metrics()
	if len(ms) != len(wants) {
		t.Fatalf("got %d metrics, want %d: %+v", len(ms), len(wants), ms)
	}
	for _, m := range ms {
		w, ok := wants[m.Key]
		if !ok {
			t.Errorf("unexpected metric %s", m.Key)
			continue
		}
		if m.Class != w.class || m.Dir != w.dir {
			t.Errorf("%s: class %s dir %d, want %s dir %d", m.Key, m.Class, m.Dir, w.class, w.dir)
		}
	}
	if ms[0].Key != "net.pingpong_ns{backend=unix,size=8}" || ms[len(ms)-1].Class != ClassInfo {
		t.Errorf("metrics out of document order: %+v", ms)
	}
}

// TestNetValidatorRejects: the validator must catch structural damage, a
// saturated offload rate below the global-lock baseline, and residuals
// that are missing or inconsistent.
func TestNetValidatorRejects(t *testing.T) {
	if err := goodNet().Validate(); err != nil {
		t.Fatalf("baseline report should validate: %v", err)
	}
	cases := map[string]func(*NetReport){
		"wrong schema":        func(r *NetReport) { r.Schema = "net/v0" },
		"no backends":         func(r *NetReport) { r.Backends = nil },
		"unnamed backend":     func(r *NetReport) { r.Backends[0].Backend = "" },
		"empty pingpong":      func(r *NetReport) { r.Backends[0].PingPong = nil },
		"empty rate":          func(r *NetReport) { r.Backends[0].Rate = nil },
		"sizes descending":    func(r *NetReport) { r.Backends[0].PingPong[0].Size = 1 << 20 },
		"threads descending":  func(r *NetReport) { r.Backends[0].Rate[0].Threads = 32 },
		"zero latency":        func(r *NetReport) { r.Backends[0].PingPong[0].LatencyNs = 0 },
		"zero rate":           func(r *NetReport) { r.Backends[0].Rate[0].DirectMsgsSec = 0 },
		"perf gate":           func(r *NetReport) { r.Backends[0].Rate[1].OffloadMsgsSec = 250_000 },
		"no residuals":        func(r *NetReport) { r.Residuals = nil },
		"bad residual":        func(r *NetReport) { r.Residuals[0].SimNs = 0 },
		"inconsistent ratio":  func(r *NetReport) { r.Residuals[0].Ratio = 20 },
		"unnamed residual":    func(r *NetReport) { r.Residuals[0].Bench = "" },
		"residual no backend": func(r *NetReport) { r.Residuals[0].Backend = "" },
	}
	for name, corrupt := range cases {
		r := goodNet()
		corrupt(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: validator accepted a corrupt report", name)
		}
	}
}

// TestReadReport: every committed BENCH document decodes into its schema's
// type and validates; an unknown schema is refused with the known ones
// listed.
func TestReadReport(t *testing.T) {
	for name, schema := range map[string]string{
		"BENCH_mtscale.json": MTScaleSchema,
		"BENCH_topo.json":    TopoSchema,
		"BENCH_chaos.json":   ChaosSchema,
		"BENCH_net.json":     NetSchema,
	} {
		got, err := ValidateFile(filepath.Join("..", name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if got != schema {
			t.Errorf("%s: schema %q, want %q", name, got, schema)
		}
	}
	p := filepath.Join(t.TempDir(), "mystery.json")
	if err := os.WriteFile(p, []byte(`{"schema":"mystery/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadReport(p); err == nil || !strings.Contains(err.Error(), NetSchema) {
		t.Errorf("unknown schema: err = %v, want one listing the known schemas", err)
	}
}
