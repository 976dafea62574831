package bench

import "mpioffload/sim"

// The benchmarks accumulate each run's resilience counters here so drivers
// can print one fault/recovery summary for a whole sweep. Everything in the
// package runs single-threaded from a driver's main, like the simulations
// themselves.
var resil sim.Resilience

// Run executes one simulation, folding its resilience and observability
// counters into the package accumulators. All benchmark entry points go
// through it, and so do drivers that run application kernels directly.
func Run(cfg sim.Config, program func(env *Env)) sim.Result {
	res := sim.Run(cfg, program)
	resil.Add(res.Resilience)
	accumulateMetrics(cfg.Approach, res.Metrics)
	return res
}

// TakeResilience returns the resilience counters accumulated since the last
// call and resets the accumulator.
func TakeResilience() sim.Resilience {
	r := resil
	resil = sim.Resilience{}
	return r
}

// ResilienceTable renders the fault/recovery counters for a driver to print
// alongside its results.
func ResilienceTable(r sim.Resilience) *Table {
	t := NewTable("fault injection and recovery",
		"counter", "count")
	t.Add("packets dropped", r.Dropped)
	t.Add("packets duplicated", r.Duplicated)
	t.Add("packets stalled", r.Stalled)
	t.Add("blackout drops", r.BlackoutDrop)
	t.Add("crash drops", r.CrashDrop)
	t.Add("link-outage stalls", r.LinkStalls)
	t.Add("failed-link drops", r.LinkDrops)
	t.Add("packets rerouted", r.Rerouted)
	t.Add("reliable sends", r.RelSends)
	t.Add("retransmits", r.Retransmits)
	t.Add("acks", r.Acks)
	t.Add("dup deliveries dropped", r.DupDropped)
	t.Add("out-of-order buffered", r.OutOfOrder)
	t.Add("abandoned packets", r.Abandoned)
	t.Add("watchdog trips", r.WatchdogTrips)
	return t
}
