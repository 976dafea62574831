package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strings"
)

// perLayer lists every per-layer metric with its unit. Every traced run
// reports all of them; a layer the workload never touches reads 0. Counts
// marked exact in README.md repeat exactly for a given seed.
var perLayer = []struct{ name, unit string }{
	// internal/vclock: event heap and task handoff.
	{"vclock.events", "count"},
	{"vclock.host_ns_per_event", "ns"},
	// Go runtime.
	{"go.allocs_per_event", "count"},
	{"go.alloc_bytes_per_event", "B"},
	{"go.allocs_per_msg", "count"},
	{"go.gc_cycles", "count"},
	// sim: cluster construction.
	{"sim.setup_bytes_per_rank", "B"},
	{"sim.span_s", "s"},
	// internal/proto (exact counts).
	{"proto.eager_sends", "count"},
	{"proto.rdv_sends", "count"},
	{"proto.unexpected_hits", "count"},
	{"proto.posted_hits", "count"},
	{"proto.progress_calls", "count"},
	// internal/core: the simulated offload agent (virtual ns).
	{"core.drain_batches", "count"},
	{"core.mean_batch", "count"},
	{"core.polls_per_completion", "ratio"},
	{"core.duty.issue_ns", "ns"},
	{"core.duty.progress_ns", "ns"},
	{"core.duty.idle_ns", "ns"},
	{"core.queue_wait_ns.p50", "ns"},
	{"core.queue_wait_ns.p99", "ns"},
	{"core.service_ns.p50", "ns"},
	{"core.service_ns.p99", "ns"},
	// internal/fabric, internal/queue, internal/reqpool.
	{"fabric.msgs", "count"},
	{"fabric.bytes", "B"},
	{"fabric.transit_ns.p50", "ns"},
	{"queue.cmdq_hwm", "count"},
	{"reqpool.hwm", "count"},
	// apps/qcd (exact simulated statistics).
	{"qcd.virt_total_ns.baseline", "ns"},
	{"qcd.virt_total_ns.offload", "ns"},
	{"qcd.tflops.baseline", "TFLOP/s"},
	{"qcd.tflops.offload", "TFLOP/s"},
	// Virtual critical-path shares of one traced Offload run.
	{"critpath.compute", "ratio"},
	{"critpath.queue_wait", "ratio"},
	{"critpath.offload_service", "ratio"},
	{"critpath.network", "ratio"},
	{"critpath.idle", "ratio"},
	// rt: the real offload engine.
	{"rt.post_ns.p50", "ns"},
	{"rt.post_ns.p99", "ns"},
	{"rt.wait_ns.p50", "ns"},
	{"rt.wait_ns.p99", "ns"},
	{"rt.queue_wait_ns.p50", "ns"},
	{"rt.queue_wait_ns.p99", "ns"},
	{"rt.service_ns.p50", "ns"},
	{"rt.service_ns.p99", "ns"},
	{"rt.polls_per_completion", "ratio"},
	{"rt.agent_duty", "ratio"},
	{"rt.oneway_us.8B.p50", "us"},
	{"rt.oneway_us.8B.p99", "us"},
	{"rt.oneway_us.64KiB.p50", "us"},
	{"rt.oneway_us.64KiB.p99", "us"},
	// internal/transport.
	{"transport.frames", "count"},
	{"transport.bytes", "B"},
	{"transport.errors", "count"},
	{"transport.send_ns.p50", "ns"},
	{"transport.send_ns.p99", "ns"},
	{"transport.deliver_ns.p50", "ns"},
	{"transport.deliver_ns.p99", "ns"},
	// Span self time per traced rep.
	{"harness.span_self_s", "s"},
	{"rt.span_self_s", "s"},
	{"transport.span_self_s", "s"},
	// Tracing itself.
	{"trace.overhead", "ratio"},
	{"trace.reps", "count"},
	{"trace.spans_dropped", "count"},
}

// profileMetric names the per-rep CPU-profile self time of a bucket.
func profileMetric(bucket string) string {
	if strings.HasPrefix(bucket, "runtime.") {
		return bucket + "_self_s"
	}
	return bucket + ".self_s"
}

// perLayerNames is every name a traced run reports.
func perLayerNames() []string {
	var out []string
	for _, m := range perLayer {
		out = append(out, m.name)
	}
	for _, b := range profileBuckets {
		out = append(out, profileMetric(b))
	}
	return out
}

// layerVals accumulates a traced run's per-layer values by name.
type layerVals map[string]float64

// emit records every per-layer metric into ms, 0 where vals has none, and
// fails on a value under a name the list does not have.
func (vals layerVals) emit(ms *metricSet) error {
	known := map[string]bool{}
	for _, m := range perLayer {
		ms.set(m.name, m.unit, vals[m.name])
		known[m.name] = true
	}
	for _, b := range profileBuckets {
		n := profileMetric(b)
		ms.set(n, "s", vals[n])
		known[n] = true
	}
	for n := range vals {
		if !known[n] {
			return fmt.Errorf("per-layer value %q is not in the metric list", n)
		}
	}
	return nil
}

// tail records the p50 and p99 of samples (scaled by div) under
// prefix.p50 and prefix.p99; the p99 needs minTail samples beyond it.
func (vals layerVals) tail(prefix string, samples []float64, div float64) error {
	if len(samples) == 0 {
		return fmt.Errorf("%s: no samples", prefix)
	}
	p99, err := percentile(samples, 0.99)
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	vals[prefix+".p50"] = median(samples) / div
	vals[prefix+".p99"] = p99 / div
	return nil
}

// cpuProfile is a running CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and records each bucket's CPU seconds per rep.
func (p *cpuProfile) stop(vals layerVals, reps int) error {
	pprof.StopCPUProfile()
	by, err := bucketProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	for b, ns := range by {
		vals[profileMetric(b)] = float64(ns) / 1e9 / float64(reps)
	}
	return nil
}

// memDelta is the change of the allocator's counters over a phase.
type memDelta struct{ mallocs, bytes, gcs float64 }

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		mallocs: float64(after.Mallocs - before.Mallocs),
		bytes:   float64(after.TotalAlloc - before.TotalAlloc),
		gcs:     float64(after.NumGC - before.NumGC),
	}
}
