package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.99); err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if _, err := percentile(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples has only 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:100], 0.9); err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples must be refused")
	}
	for _, c := range []struct{ n, want int }{{1000, 10}, {999, 9}, {100, 10}, {20, 10}} {
		q := 0.99
		if c.n <= 100 {
			q = 0.9
		}
		if c.n == 20 {
			q = 0.5
		}
		if got := beyond(c.n, q); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {1.0 / 3, 2}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN")
	}
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name              string
		parents, children []interval
		want              int64
	}{
		{"no children", []interval{{0, 100}}, nil, 100},
		{"overlapping children count once", []interval{{0, 100}}, []interval{{10, 20}, {15, 30}}, 80},
		{"child sticking out is clipped", []interval{{0, 100}}, []interval{{90, 120}}, 90},
		{"child outside every parent", []interval{{0, 100}}, []interval{{200, 300}}, 100},
		{"nested children", []interval{{0, 100}}, []interval{{10, 50}, {20, 30}}, 60},
		{"overlapping parents count once", []interval{{0, 60}, {40, 100}}, []interval{{50, 70}}, 80},
		{"two parents, children in both", []interval{{0, 10}, {20, 30}}, []interval{{5, 25}}, 10},
		{"empty spans ignored", []interval{{5, 5}, {0, 10}}, []interval{{3, 3}}, 10},
	}
	for _, c := range cases {
		if got := selfTime(c.parents, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLayerSelfUsesEveryDeeperLayer(t *testing.T) {
	r := newSpanRec(time.Now(), 16)
	r.on = true
	r.spans = []span{
		{start: 0, end: 100, layer: layerHarness},
		{start: 10, end: 60, layer: layerRT},
		{start: 20, end: 30, layer: layerTransport},
		{start: 70, end: 80, layer: layerTransport}, // called from the harness directly
	}
	got := layerSelf(r)
	want := [numLayers]int64{100 - 50 - 10, 0, 50 - 10, 20}
	if got != want {
		t.Fatalf("layerSelf = %v, want %v", got, want)
	}
}

func TestSpanRecCapacity(t *testing.T) {
	r := newSpanRec(time.Now(), 2)
	r.add(layerRT, kindPost, 0) // off: not kept, not dropped
	r.setOn(true)
	for i := 0; i < 3; i++ {
		r.add(layerRT, kindPost, r.now())
	}
	if len(r.spans) != 2 || r.drops != 1 || r.room() != 0 {
		t.Fatalf("kept %d, dropped %d, room %d; want 2, 1, 0", len(r.spans), r.drops, r.room())
	}
	var none *spanRec
	none.add(layerRT, kindPost, none.now()) // a nil recorder records nothing
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mallocgc":                         "runtime",
		"container/heap.Push":                      "container/heap",
		"mpioffload/internal/vclock.(*Kernel).Run": "mpioffload/internal/vclock",
		"mpioffload/internal/queue.(*MPMC[go.shape.struct { mpioffload/internal/core.x int }]).Push": "mpioffload/internal/queue",
		"mpioffload/rt.(*Rank).offloadLoop.func1":                                                    "mpioffload/rt",
		"main.main":                 "main",
		"internal/poll.(*FD).Write": "internal/poll",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"container/heap.down", "mpioffload/internal/vclock.(*Kernel).Run"}, "vclock"},
		{[]string{"mpioffload/internal/proto.(*Engine).match", "mpioffload/mpi.(*Comm).Recv"}, "proto"},
		{[]string{"sort.insertionSort", "mpioffload/internal/fabric.(*Fabric).send"}, "fabric"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "mpioffload/internal/reqpool.New"}, bucketMalloc},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.gcAssistAlloc"}, bucketGC},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.schedule"}, bucketSched},
		{[]string{"runtime.lock2", "runtime.chansend", "mpioffload/internal/vclock.(*Task).Sleep"}, bucketSched},
		{[]string{"runtime.memmove", "mpioffload/internal/transport.encode"}, "transport"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "mpioffload/internal/transport.(*Socket).Send"}, "syscall"},
		{[]string{"runtime.memmove"}, bucketRTOth},
		{[]string{"math.Sqrt"}, bucketOther},
		{nil, bucketOther},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

var sink float64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink += math.Sqrt(float64(i))
		}
	}
}

func TestBucketProfileDecodesARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	by, err := bucketProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for b, ns := range by {
		total += ns
		known := false
		for _, k := range profileBuckets {
			known = known || k == b
		}
		if !known {
			t.Errorf("bucket %q is not in profileBuckets", b)
		}
	}
	// Under the race detector, samples in its C runtime carry no Go caller
	// and land in "other"; the spin loop must still reach the harness.
	if total <= 0 || by["harness"] <= 0 {
		t.Fatalf("the spin loop's samples did not reach the harness bucket: %v", by)
	}
	if _, err := bucketProfile([]byte("not gzip")); err == nil {
		t.Error("garbage profile must be refused")
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"run_s", "msgs_per_s.offload", "rt.oneway_us.64KiB.p99", "sim-dslash-256", "9a"} {
		if !validName(ok) {
			t.Errorf("%q should be valid", ok)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "b"
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "p{99}", "é", long} {
		if validName(bad) {
			t.Errorf("%q should be invalid", bad)
		}
	}
	ms := newMetricSet()
	ms.set("ok", "s", 1)
	ms.set("bad name", "s", 1)
	ms.set("nan", "s", math.NaN())
	ms.set("unit", "bad unit", 1)
	ms.set("ok", "s", 2)
	if len(ms.errs) != 4 {
		t.Fatalf("want 4 recording errors, got %v", ms.errs)
	}
	for _, n := range append(append([]string(nil), endToEnd...), perLayerNames()...) {
		if !validName(n) {
			t.Errorf("reported metric %q has an invalid name", n)
		}
	}
	for _, w := range workloads {
		if !validName(w.name) {
			t.Errorf("workload %q has an invalid name", w.name)
		}
	}
}

func TestPerLayerEmitFillsEveryName(t *testing.T) {
	ms := newMetricSet()
	if err := (layerVals{"vclock.events": 3}).emit(ms); err != nil {
		t.Fatal(err)
	}
	if err := checkNames(ms, true); err != nil {
		t.Fatal(err)
	}
	if ms.m["vclock.events"].Value != 3 || ms.m["rt.agent_duty"].Value != 0 {
		t.Fatalf("emit lost or invented values: %v", ms.m)
	}
	if err := (layerVals{"no.such_metric": 1}).emit(newMetricSet()); err == nil {
		t.Fatal("a value outside the metric list must be refused")
	}
}

func TestPayloadStampAndVerify(t *testing.T) {
	pat := pattern(42, 1, 64)
	if bytes.Equal(pat, pattern(43, 1, 64)) || !bytes.Equal(pat, pattern(42, 1, 64)) {
		t.Fatal("pattern must depend on the seed and only on it")
	}
	buf := make([]byte, 64)
	stamp(buf, pat, 7)
	if !verify(buf, pat, 7) || verify(buf, pat, 8) {
		t.Fatal("sequence number not carried")
	}
	buf[40] ^= 1
	if verify(buf, pat, 7) {
		t.Fatal("corrupt payload accepted")
	}
	small := pattern(1, 2, 8)
	sb := make([]byte, 8)
	stamp(sb, small, 3)
	if !verify(sb, small, 3) || verify(sb[:7], small, 3) {
		t.Fatal("8-byte payloads must carry the sequence number; truncations must fail")
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this directory: %v", err)
	}
	type named struct{ Name, Unit string }
	var bj struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	names := func(ns []named) []string {
		var out []string
		for _, n := range ns {
			out = append(out, n.Name)
		}
		sort.Strings(out)
		return out
	}
	var wl []string
	for _, w := range workloads {
		wl = append(wl, w.name)
	}
	sort.Strings(wl)
	e2e := append([]string(nil), endToEnd...)
	sort.Strings(e2e)
	if got := names(bj.Workloads); !reflect.DeepEqual(got, wl) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", got, wl)
	}
	if got := names(bj.EndToEnd); !reflect.DeepEqual(got, e2e) {
		t.Errorf("end_to_end: BENCHMARK.json %v, code %v", got, e2e)
	}
	units := map[string]string{}
	for _, m := range perLayer {
		units[m.name] = m.unit
	}
	for _, bk := range profileBuckets {
		units[profileMetric(bk)] = "s"
	}
	if len(bj.PerLayer) != len(units) {
		t.Errorf("per_layer: BENCHMARK.json has %d metrics, code %d", len(bj.PerLayer), len(units))
	}
	for _, m := range bj.PerLayer {
		if u, ok := units[m.Name]; !ok || u != m.Unit {
			t.Errorf("per_layer %s [%s]: code has unit %q (known %v)", m.Name, m.Unit, u, ok)
		}
	}
}
