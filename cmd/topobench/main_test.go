package main

import (
	"path/filepath"
	"testing"

	"mpioffload/bench"
	"mpioffload/internal/model"
	"mpioffload/internal/topo"
	"mpioffload/sim"
)

// TestTopoReportSchema runs a reduced sweep end to end — one
// oversubscribed fat-tree, ring versus hier at 1 MiB on the acceptance
// configuration — and checks the emitted document against the validator,
// the same check `benchdiff -validate` applies and `make topo-smoke` runs
// in CI.
func TestTopoReportSchema(t *testing.T) {
	const ts = "fattree:arity=4,oversub=2"
	spec, err := topo.Parse(ts)
	if err != nil {
		t.Fatal(err)
	}
	rep := &bench.TopoReport{Schema: bench.TopoSchema, Profile: "endeavor-xeon", Nodes: 16, RanksPerNode: 2}
	for _, algo := range []string{"ring", "hier"} {
		p := model.Endeavor()
		p.RanksPerNode = 2
		p.Topo = spec
		row := bench.TopoAllreduce(sim.Config{Approach: sim.Baseline, Profile: p}, 32, algo, 1<<20, 1)
		row.Topo = ts
		rep.Rows = append(rep.Rows, row)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("generated report invalid: %v", err)
	}
	if hier, ring := rep.Rows[1], rep.Rows[0]; hier.MeanNs >= ring.MeanNs {
		t.Fatalf("hier (%.0f ns) not faster than ring (%.0f ns)", hier.MeanNs, ring.MeanNs)
	}
	if rep.Rows[0].MaxLinkUtil <= 0 || rep.Rows[0].MaxQueue <= 0 {
		t.Fatalf("fat-tree row carries no link contention: %+v", rep.Rows[0])
	}

	// Round-trip through the file-based validator used by benchdiff -validate.
	path := filepath.Join(t.TempDir(), "topo.json")
	if err := bench.WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	if _, err := bench.ValidateFile(path); err != nil {
		t.Fatalf("file validation: %v", err)
	}
}
