package main

import (
	"path/filepath"
	"testing"

	"mpioffload/bench"
	"mpioffload/internal/model"
	"mpioffload/internal/topo"
	"mpioffload/sim"
)

// cellFor runs one real chaos cell on the fat-tree axis.
func cellFor(t *testing.T, plan string, a sim.Approach) bench.ChaosCellResult {
	t.Helper()
	const ts = "fattree:arity=4,oversub=2,trunks=2"
	spec, err := topo.Parse(ts)
	if err != nil {
		t.Fatal(err)
	}
	p := model.Endeavor()
	p.RanksPerNode = 1
	p.Topo = spec
	cs := specFor(ts, plan, 1)
	if cs.Crash {
		cs.Fault.Crashes[0].Rank = 7
	}
	return bench.ChaosCell(sim.Config{Approach: a, Profile: p, Watchdog: 600_000}, 8, cs)
}

// TestChaosCellInvariants runs the trunkdown and crash cells end to end and
// checks the invariants the validator enforces on the full sweep.
func TestChaosCellInvariants(t *testing.T) {
	td := cellFor(t, "trunkdown", sim.Baseline)
	if len(td.Violations) != 0 {
		t.Fatalf("trunkdown cell violated invariants: %v", td.Violations)
	}
	if td.Rerouted == 0 {
		t.Fatalf("trunkdown cell rerouted nothing: %+v", td)
	}
	if len(td.FailDropLinks) == 0 || td.FailDropLinks[0].Link != "leaf0.up0" {
		t.Fatalf("trunkdown drops unattributed: %+v", td.FailDropLinks)
	}

	cr := cellFor(t, "crash", sim.Offload)
	if len(cr.Violations) != 0 {
		t.Fatalf("crash cell violated invariants: %v", cr.Violations)
	}
	if cr.DetectNs <= 0 || cr.RecoverNs < cr.DetectNs {
		t.Fatalf("crash cell timings wrong: detect=%f recover=%f", cr.DetectNs, cr.RecoverNs)
	}
}

// TestChaosReportSchema assembles a reduced report from real cells and
// round-trips it through the file validator benchdiff -validate uses.
func TestChaosReportSchema(t *testing.T) {
	rep := &bench.ChaosReport{Schema: bench.ChaosSchema, Profile: "endeavor-xeon", Ranks: 8, Seed: 1, WatchdogNs: 600_000}
	for _, plan := range planAxis {
		for _, a := range approachAxis {
			rep.Cells = append(rep.Cells, cellFor(t, plan, a))
		}
	}
	// The reduced sweep has 8 cells; the validator demands 12, so pad with
	// a copy of the drop cells under the dragonfly label (structure-only).
	for i := 0; i < 4; i++ {
		c := rep.Cells[i]
		c.Topo = "dragonfly:group=2"
		rep.Cells = append(rep.Cells, c)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("generated report invalid: %v", err)
	}

	path := filepath.Join(t.TempDir(), "chaos.json")
	if err := bench.WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	if _, err := bench.ValidateFile(path); err != nil {
		t.Fatalf("file validation: %v", err)
	}
}
