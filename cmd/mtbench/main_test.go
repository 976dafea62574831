package main

import (
	"path/filepath"
	"testing"

	"mpioffload/bench"
	"mpioffload/internal/model"
	"mpioffload/sim"
)

// TestMTScaleReportSchema runs a tiny sweep end to end and checks the
// emitted document against the validator — the same check
// `benchdiff -validate` applies and `make mtscale-smoke` runs in CI.
func TestMTScaleReportSchema(t *testing.T) {
	p := model.Endeavor()
	simRows := bench.MTPostScaling(sim.Config{Approach: sim.Offload, Profile: p}, []int{1, 2}, 3)
	rtRows := rtPostScaling([]int{1, 2}, 64)
	agentCells := bench.MTAgentScaling(sim.Config{Approach: sim.Offload, Profile: p}, []int{1, 2}, []int{1, 2}, 3)
	rep := &bench.MTScaleReport{Schema: bench.MTScaleSchema, Profile: p.Name, Sim: simRows, RT: rtRows, Agents: agentCells}
	if err := rep.Validate(); err != nil {
		t.Fatalf("generated report invalid: %v", err)
	}

	// The sim post cost must be flat at EnqueueCost regardless of thread
	// count — that is the sharded queue's whole claim in virtual time.
	for _, r := range simRows {
		if r.PostNs != p.EnqueueCost {
			t.Errorf("sim post at %d threads = %v ns, want flat %v", r.Threads, r.PostNs, p.EnqueueCost)
		}
	}

	// Round-trip through the file-based validator used by benchdiff -validate.
	path := filepath.Join(t.TempDir(), "mtscale.json")
	if err := bench.WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	if _, err := bench.ValidateFile(path); err != nil {
		t.Fatalf("file validation: %v", err)
	}
}
