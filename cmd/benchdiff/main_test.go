package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpioffload/bench"
)

var oldMTScale = []byte(`{
  "schema": "mtscale/v2",
  "profile": "test",
  "sim": [{"threads": 1, "post_ns": 140, "mean_batch": 1},
          {"threads": 16, "post_ns": 140, "mean_batch": 13.7}],
  "rt": [{"threads": 16, "sharded_ns_per_post": 65, "shared_ns_per_post": 68}],
  "agents": [{"threads": 16, "agents": 2, "post_ns": 140, "mean_batch": 6.7,
              "duty_issue": 0.5, "duty_progress": 0.1, "duty_idle": 0.4,
              "polls_per_completion": 0.5, "posts_per_ms": 6000}]
}`)

// newMTScaleRegressed degrades three metrics, each past its band in its
// own class: a 30% virtual post-cost blowup (band 10%), a 50% wall-clock
// blowup (band 35%), and a 20% throughput loss on a higher-is-better
// virtual metric.
var newMTScaleRegressed = []byte(`{
  "schema": "mtscale/v2",
  "profile": "test",
  "sim": [{"threads": 1, "post_ns": 140, "mean_batch": 1},
          {"threads": 16, "post_ns": 182, "mean_batch": 13.7}],
  "rt": [{"threads": 16, "sharded_ns_per_post": 98, "shared_ns_per_post": 68}],
  "agents": [{"threads": 16, "agents": 2, "post_ns": 140, "mean_batch": 6.7,
              "duty_issue": 0.5, "duty_progress": 0.1, "duty_idle": 0.4,
              "polls_per_completion": 0.5, "posts_per_ms": 4800}]
}`)

func writeTemp(t *testing.T, name string, data []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSyntheticRegression(t *testing.T) {
	oldDoc, err := loadDoc(writeTemp(t, "old.json", oldMTScale))
	if err != nil {
		t.Fatal(err)
	}
	newDoc, err := loadDoc(writeTemp(t, "new.json", newMTScaleRegressed))
	if err != nil {
		t.Fatal(err)
	}
	rows := diffMetrics(oldDoc.metrics, newDoc.metrics, tolerances{virtual: 0.10, wall: 0.35})
	var buf bytes.Buffer
	regressions := writeTable(&buf, "mtscale/v2", "old", "new", rows)
	if regressions != 3 {
		t.Fatalf("synthetic diff found %d regressions, want 3:\n%s", regressions, buf.String())
	}
	for _, want := range []string{
		"sim.post_ns{threads=16}",
		"rt.sharded_ns_per_post{threads=16}",
		"agents.posts_per_ms{threads=16,agents=2}",
	} {
		flagged := false
		for _, r := range rows {
			if r.key == want && r.verdict == vRegression {
				flagged = true
			}
		}
		if !flagged {
			t.Errorf("metric %s not flagged as regression", want)
		}
	}
	// Unchanged rows stay ok; the 1-thread row did not move.
	for _, r := range rows {
		if r.key == "sim.post_ns{threads=1}" && r.verdict != vOK {
			t.Errorf("unchanged metric got verdict %s", r.verdict)
		}
	}
}

func TestSelfDiffIsClean(t *testing.T) {
	p := writeTemp(t, "doc.json", oldMTScale)
	d1, err := loadDoc(p)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := loadDoc(p)
	for _, r := range diffMetrics(d1.metrics, d2.metrics, tolerances{virtual: 0.10, wall: 0.35}) {
		if r.verdict == vRegression {
			t.Errorf("self-diff flags %s as regression", r.key)
		}
	}
}

// TestCommittedBaselinesSelfDiff runs the exact comparison the ci target
// performs: every committed BENCH document self-diffs clean.
func TestCommittedBaselinesSelfDiff(t *testing.T) {
	for _, name := range []string{"BENCH_mtscale.json", "BENCH_topo.json", "BENCH_chaos.json", "BENCH_net.json"} {
		p := filepath.Join("..", "..", name)
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("committed baseline %s missing: %v", name, err)
		}
		d, err := loadDoc(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, r := range diffMetrics(d.metrics, d.metrics, tolerances{virtual: 0.10, wall: 0.35}) {
			if r.verdict == vRegression {
				t.Errorf("%s: self-diff flags %s", name, r.key)
			}
		}
	}
}

// TestChaosHardGates: violations and trace drops regress on ANY growth,
// even within a 10% band; improvements count as better.
func TestChaosHardGates(t *testing.T) {
	mk := func(drops int) []bench.Metric {
		return []bench.Metric{
			{Key: "chaos.violations{x}", Value: 0, Class: bench.ClassHard, Dir: bench.LowerBetter},
			{Key: "chaos.trace_drops{x}", Value: float64(drops), Class: bench.ClassHard, Dir: bench.LowerBetter},
		}
	}
	rows := diffMetrics(mk(0), mk(3), tolerances{virtual: 0.10, wall: 0.35})
	found := false
	for _, r := range rows {
		if r.key == "chaos.trace_drops{x}" {
			found = true
			if r.verdict != vRegression {
				t.Errorf("trace_drops 0→3 got verdict %s, want REGRESSION", r.verdict)
			}
		}
	}
	if !found {
		t.Fatal("trace_drops metric missing from diff")
	}
	for _, r := range diffMetrics(mk(3), mk(0), tolerances{}) {
		if r.key == "chaos.trace_drops{x}" && r.verdict != vBetter {
			t.Errorf("trace_drops 3→0 got verdict %s, want better", r.verdict)
		}
	}
}

// TestSweepPointChurn: metrics present in only one generation are reported
// but never gate.
func TestSweepPointChurn(t *testing.T) {
	olds := []bench.Metric{{Key: "a", Value: 1, Class: bench.ClassVirtual}, {Key: "gone", Value: 2, Class: bench.ClassVirtual}}
	news := []bench.Metric{{Key: "a", Value: 1, Class: bench.ClassVirtual}, {Key: "fresh", Value: 3, Class: bench.ClassVirtual}}
	rows := diffMetrics(olds, news, tolerances{virtual: 0.10})
	var buf bytes.Buffer
	if n := writeTable(&buf, "s", "o", "n", rows); n != 0 {
		t.Fatalf("churn produced %d regressions, want 0:\n%s", n, buf.String())
	}
	byKey := map[string]verdict{}
	for _, r := range rows {
		byKey[r.key] = r.verdict
	}
	if byKey["gone"] != vRemoved || byKey["fresh"] != vAdded {
		t.Fatalf("churn verdicts = %v", byKey)
	}
	for _, r := range rows {
		if r.key == "gone" && !math.IsNaN(r.new) {
			t.Error("removed metric has a new value")
		}
	}
	if !strings.Contains(buf.String(), "| removed |") || !strings.Contains(buf.String(), "| added |") {
		t.Errorf("table missing churn rows:\n%s", buf.String())
	}
}

// TestNetSchema: net/v1 documents flatten to wall-clock latency and rate
// metrics plus info-class residual ratios; a rate collapse past the wall
// band gates, a residual drift never does.
func TestNetSchema(t *testing.T) {
	mk := func(offload16, ratio float64) []byte {
		return []byte(`{
  "schema": "net/v1",
  "backends": [{"backend": "unix",
    "pingpong": [{"size": 8, "latency_ns": 21000}],
    "rate": [{"threads": 16, "direct_msgs_per_sec": 300000,
              "offload_msgs_per_sec": ` + num(offload16) + `}]}],
  "residuals": [{"bench": "pingpong/8", "backend": "unix",
                 "sim_ns": 1200, "real_ns": 21000, "ratio": ` + num(ratio) + `}]
}`)
	}
	oldDoc, err := loadDoc(writeTemp(t, "old.json", mk(330000, 17.5)))
	if err != nil {
		t.Fatal(err)
	}
	// Offload rate halves (past the 35% wall band, higher-better) while the
	// residual ratio triples (info class, must not gate).
	newDoc, err := loadDoc(writeTemp(t, "new.json", mk(165000, 52.5)))
	if err != nil {
		t.Fatal(err)
	}
	rows := diffMetrics(oldDoc.metrics, newDoc.metrics, tolerances{virtual: 0.10, wall: 0.35})
	var buf bytes.Buffer
	if n := writeTable(&buf, "net/v1", "old", "new", rows); n != 1 {
		t.Fatalf("net diff found %d regressions, want 1:\n%s", n, buf.String())
	}
	verdicts := map[string]verdict{}
	for _, r := range rows {
		verdicts[r.key] = r.verdict
	}
	if v := verdicts["net.offload_msgs_per_sec{backend=unix,threads=16}"]; v != vRegression {
		t.Errorf("halved offload rate got verdict %s, want REGRESSION", v)
	}
	if v := verdicts["net.residual_ratio{bench=pingpong/8,backend=unix}"]; v != vInfo {
		t.Errorf("residual ratio drift got verdict %s, want info", v)
	}
	if v := verdicts["net.pingpong_ns{backend=unix,size=8}"]; v != vOK {
		t.Errorf("unchanged latency got verdict %s, want ok", v)
	}
}

func TestSchemaMismatchAndUnknown(t *testing.T) {
	if _, err := loadDoc(writeTemp(t, "bad.json", []byte(`{"schema":"mystery/v9"}`))); err == nil {
		t.Error("unknown schema accepted")
	}
	if _, err := loadDoc(writeTemp(t, "empty.json", []byte(`{"schema":"topo/v1","rows":[]}`))); err == nil {
		t.Error("empty document accepted")
	}
}
