//go:build !race

package rt

import (
	"testing"
	"time"
)

// overheadSink is package-level so the compiler cannot prove the cluster
// state constant and delete the atomic loads we are measuring.
var overheadSink *Cluster

// TestDisabledPathOverhead enforces the flight-recorder and telemetry cost
// budget: with the flight recorder switched off and no telemetry registry
// attached, each gate must cost under 5 ns — one atomic load plus a branch,
// the same discipline internal/obs enforces for its hooks. Each gate is
// called through a closure in a slice, so an empty closure is timed in the
// same loop and the budget applies to the gate's cost above it. Measured by
// hand (many short rounds interleave the entries and keep each one's
// minimum, so a round slowed by preemption is discarded); excluded under
// -race, whose instrumentation multiplies the cost of every atomic op.
func TestDisabledPathOverhead(t *testing.T) {
	// Direct mode spawns no offload goroutines, so nothing records an
	// agent-start event before the recorder is switched off.
	c := NewCluster(2, Direct)
	defer c.Close()
	c.SetFlightRecorder(false)
	overheadSink = c
	defer func() { overheadSink = nil }()
	r := c.Rank(0)

	gates := []struct {
		name string
		call func()
	}{
		{"empty closure", func() {}},
		// The submit-path gate in isend/irecv: the id computation and ring
		// write are skipped entirely when the load says off.
		{"flight-gate", func() {
			if overheadSink.flightOn.Load() {
				_ = r.opID(1)
			}
		}},
		// The cold-caller guard inside the hook itself.
		{"flight-hook", func() { r.flight(fkComplete, 0, 1, 7, 42) }},
		// The duty-timing gate at the top of each offload-loop wakeup.
		{"telemetry-gate", func() {
			if overheadSink.telemOn.Load() {
				_ = time.Now()
			}
		}},
	}
	const rounds, iters = 50, 100_000
	best := make([]time.Duration, len(gates))
	for round := 0; round < rounds; round++ {
		for i, g := range gates {
			start := time.Now()
			for n := 0; n < iters; n++ {
				g.call()
			}
			if d := time.Since(start); round == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	baseline := float64(best[0].Nanoseconds()) / iters
	t.Logf("empty closure: %.2f ns/op", baseline)
	for i, g := range gates[1:] {
		nsPerOp := float64(best[i+1].Nanoseconds())/iters - baseline
		t.Logf("disabled %s: %.2f ns/op over the empty closure", g.name, nsPerOp)
		if nsPerOp >= 5 {
			t.Errorf("disabled %s costs %.2f ns/op over the empty closure, want < 5", g.name, nsPerOp)
		}
	}
	if n := r.flightR.recorded(); n != 0 {
		t.Fatalf("disabled flight recorder wrote %d records", n)
	}
}
