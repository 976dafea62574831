//go:build !race

package obs

import (
	"testing"
	"time"
)

// hookSink is package-level so the compiler cannot devirtualize or prove
// the receiver nil and delete the atomic load we are measuring.
var hookSink *Recorder

// TestDisabledHookOverhead proves the overhead budget: a hook on a disabled
// (but present) recorder must cost under 5 ns — a nil check plus one atomic
// load. Every hook family is measured, including the flow and histogram
// hooks, since each added argument rides the same early-out. Each hook is
// called through a closure in a slice, and that indirect call alone costs a
// few ns on a small host, so an empty closure is timed in the same loop and
// the budget applies to the hook's cost above it. Measured by hand (not
// testing.Benchmark) so the whole check runs in milliseconds: many short
// rounds interleave the entries and keep each one's minimum, so a round
// slowed by preemption or a busy sibling core is discarded. Excluded under -race, whose instrumentation multiplies
// the cost of every atomic op.
func TestDisabledHookOverhead(t *testing.T) {
	rec := NewRecorder(0, 8)
	rec.on.Store(false)
	hookSink = rec
	defer func() { hookSink = nil }()

	hooks := []struct {
		name string
		call func()
	}{
		{"empty closure", func() {}},
		{"Progressed", func() { hookSink.Progressed(TApp) }},
		{"CmdEnqueued", func() { hookSink.CmdEnqueued(1, TApp, 1, 1) }},
		{"CmdDequeued", func() { hookSink.CmdDequeued(1, 1, 0, 5) }},
		{"CmdCompleted", func() { hookSink.CmdCompleted(1, 1, 42, 5) }},
		{"Issued", func() { hookSink.Issued(1, TApp, EvIssueEager, 8, 1, 42) }},
		{"Delivered", func() { hookSink.Delivered(1, 8, 1, 42, 5) }},
		{"EagerLanded", func() { hookSink.EagerLanded(1, TApp, 8, 1, 42) }},
		{"RdvStarted", func() { hookSink.RdvStarted(1, TApp, 8, 1, 42, 5) }},
	}
	const rounds, iters = 50, 100_000
	best := make([]time.Duration, len(hooks))
	for round := 0; round < rounds; round++ {
		for i, h := range hooks {
			start := time.Now()
			for n := 0; n < iters; n++ {
				h.call()
			}
			if d := time.Since(start); round == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	baseline := float64(best[0].Nanoseconds()) / iters
	t.Logf("empty closure: %.2f ns/op", baseline)
	for i, h := range hooks[1:] {
		nsPerOp := float64(best[i+1].Nanoseconds())/iters - baseline
		t.Logf("disabled %s: %.2f ns/op over the empty closure", h.name, nsPerOp)
		if nsPerOp >= 5 {
			t.Errorf("disabled %s costs %.2f ns/op over the empty closure, want < 5", h.name, nsPerOp)
		}
	}
	if got := len(rec.Events()); got != 0 {
		t.Fatalf("disabled hooks recorded %d events", got)
	}
}
