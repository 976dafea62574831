package main

import (
	"sort"
	"sync"
	"time"
)

// Spans are recorded only in traced runs, around the benchmark's own calls
// into each layer's public API. A layer's self time is the wall time its
// spans cover minus the part of it that spans of its child layers cover.

// layer names a span's layer. The order is the call hierarchy: each layer
// calls into the next.
type layer uint8

const (
	layerHarness   layer = iota // the benchmark's own loop: one rep, one window
	layerSim                    // sim.Run / bench figure-point calls
	layerRT                     // rt Isend/Irecv/Wait
	layerTransport              // transport Endpoint.Send and the bound Handler
	numLayers
)

// Span kinds, for per-call latency percentiles.
const (
	kindOther   uint8 = iota
	kindPost          // rt Isend/Irecv
	kindWait          // rt Wait/WaitErr
	kindSend          // transport Send
	kindDeliver       // transport Handler upcall
)

// span is one timed call, in nanoseconds since the recorder's epoch.
type span struct {
	start, end int64
	layer      layer
	kind       uint8
}

// spanRec keeps spans in memory up to a fixed capacity; spans past it are
// counted, not kept, so a traced run never grows without bound.
type spanRec struct {
	epoch time.Time
	mu    sync.Mutex
	on    bool
	spans []span
	drops int64
}

func newSpanRec(epoch time.Time, capacity int) *spanRec {
	return &spanRec{epoch: epoch, spans: make([]span, 0, capacity)}
}

// now is the recorder's clock (monotonic ns since epoch).
// A nil recorder records nothing, so untraced code paths call it freely.
func (r *spanRec) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// setOn turns recording on or off.
func (r *spanRec) setOn(on bool) {
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// add records a span that started at start and ends now.
func (r *spanRec) add(l layer, kind uint8, start int64) {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	if r.on {
		if len(r.spans) < cap(r.spans) {
			r.spans = append(r.spans, span{start: start, end: end, layer: l, kind: kind})
		} else {
			r.drops++
		}
	}
	r.mu.Unlock()
}

// room reports how many more spans fit.
func (r *spanRec) room() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return cap(r.spans) - len(r.spans)
}

// interval is a half-open [lo, hi) stretch of wall time.
type interval struct{ lo, hi int64 }

// union sorts and merges intervals into disjoint, ordered ones.
func union(iv []interval) []interval {
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	out := s[:0]
	for _, x := range s {
		if x.hi <= x.lo {
			continue
		}
		if n := len(out); n > 0 && x.lo <= out[n-1].hi {
			if x.hi > out[n-1].hi {
				out[n-1].hi = x.hi
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// measure is the total length of disjoint intervals.
func measure(u []interval) int64 {
	var t int64
	for _, x := range u {
		t += x.hi - x.lo
	}
	return t
}

// overlap is the length of the intersection of two disjoint, ordered
// interval lists.
func overlap(a, b []interval) int64 {
	var t int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if hi > lo {
			t += hi - lo
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return t
}

// selfTime is the wall time covered by parents and not covered by
// children: overlapping parents count once, and children that stick out of
// every parent subtract nothing.
func selfTime(parents, children []interval) int64 {
	p := union(parents)
	return measure(p) - overlap(p, union(children))
}

// layerSelf computes each layer's self time over spans from any number of
// recorders: a layer's children are the spans of every deeper layer.
func layerSelf(recs ...*spanRec) [numLayers]int64 {
	var by [numLayers][]interval
	for _, r := range recs {
		for _, s := range r.spans {
			by[s.layer] = append(by[s.layer], interval{s.start, s.end})
		}
	}
	var out [numLayers]int64
	for l := layer(0); l < numLayers; l++ {
		var deeper []interval
		for c := l + 1; c < numLayers; c++ {
			deeper = append(deeper, by[c]...)
		}
		out[l] = selfTime(by[l], deeper)
	}
	return out
}

// durations returns the durations (ns) of the spans of one kind.
func durations(kind uint8, recs ...*spanRec) []float64 {
	var out []float64
	for _, r := range recs {
		for _, s := range r.spans {
			if s.kind == kind {
				out = append(out, float64(s.end-s.start))
			}
		}
	}
	return out
}
