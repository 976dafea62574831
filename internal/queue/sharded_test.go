package queue

import (
	"sync"
	"testing"
)

func TestShardedRegister(t *testing.T) {
	q := NewSharded[int](3, 8, 8)
	if q.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", q.Shards())
	}
	ids := map[int]bool{}
	for i := 0; i < 3; i++ {
		id := q.Register()
		if id < 0 || id >= 3 {
			t.Fatalf("Register %d returned %d, want a shard id in [0,3)", i, id)
		}
		if ids[id] {
			t.Fatalf("Register returned shard %d twice", id)
		}
		ids[id] = true
	}
	// Shards exhausted: later registrations route to the overflow shard.
	if id := q.Register(); id != Overflow {
		t.Fatalf("Register past capacity = %d, want Overflow", id)
	}
	if q.Registered() != 3 {
		t.Fatalf("Registered() = %d, want 3", q.Registered())
	}
}

func TestShardedPerProducerFIFO(t *testing.T) {
	// Interleaved enqueues from 3 registered producers plus one overflow
	// producer: each producer's values must come out in its own order.
	q := NewSharded[int](3, 64, 64)
	shards := []int{q.Register(), q.Register(), q.Register(), Overflow}
	const per = 40
	for i := 0; i < per; i++ {
		for p, s := range shards {
			if !q.TryEnqueue(s, p<<16|i) {
				t.Fatalf("enqueue producer %d item %d refused", p, i)
			}
		}
	}
	if q.Len() != len(shards)*per {
		t.Fatalf("Len = %d, want %d", q.Len(), len(shards)*per)
	}
	last := []int{-1, -1, -1, -1}
	for {
		v, ok := q.TryDequeue()
		if !ok {
			break
		}
		p, seq := v>>16, v&0xffff
		if seq <= last[p] {
			t.Fatalf("producer %d seq %d dequeued after %d (FIFO violated)", p, seq, last[p])
		}
		last[p] = seq
	}
	for p, l := range last {
		if l != per-1 {
			t.Fatalf("producer %d: last seq %d, want %d (values lost)", p, l, per-1)
		}
	}
	if !q.Empty() {
		t.Fatal("queue not empty after full drain")
	}
}

func TestShardedOverflowFallback(t *testing.T) {
	// Unregistered producers (id Overflow, or any out-of-range id) share
	// the MPMC overflow shard and still drain correctly.
	q := NewSharded[int](2, 4, 16)
	for i := 0; i < 10; i++ {
		if !q.TryEnqueue(Overflow, i) {
			t.Fatalf("overflow enqueue %d refused", i)
		}
	}
	if !q.TryEnqueue(99, 10) { // out-of-range shard id routes to overflow too
		t.Fatal("out-of-range shard enqueue refused")
	}
	for want := 0; want <= 10; want++ {
		v, ok := q.TryDequeue()
		if !ok || v != want {
			t.Fatalf("dequeue = (%d, %v), want (%d, true)", v, ok, want)
		}
	}
}

func TestShardedRegisteredFullMeansRetry(t *testing.T) {
	// A registered producer's full shard refuses the enqueue rather than
	// spilling into overflow (which would break its FIFO order).
	q := NewSharded[int](1, 2, 16)
	s := q.Register()
	if !q.TryEnqueue(s, 1) || !q.TryEnqueue(s, 2) {
		t.Fatal("fills refused")
	}
	if q.TryEnqueue(s, 3) {
		t.Fatal("enqueue into a full shard succeeded (must backpressure, not spill)")
	}
	if v, ok := q.TryDequeue(); !ok || v != 1 {
		t.Fatalf("dequeue = (%d, %v), want (1, true)", v, ok)
	}
	if !q.TryEnqueue(s, 3) {
		t.Fatal("enqueue refused after drain made room")
	}
}

func TestShardedNoStarvationUnderHotShard(t *testing.T) {
	// One hot producer keeps its shard full; a single element from a quiet
	// producer (and one in overflow) must still surface within one
	// round-robin rotation's worth of dequeues.
	q := NewSharded[int](2, 256, 16)
	hot, quiet := q.Register(), q.Register()
	for i := 0; i < 200; i++ {
		if !q.TryEnqueue(hot, 1000+i) {
			t.Fatalf("hot enqueue %d refused", i)
		}
	}
	if !q.TryEnqueue(quiet, -1) || !q.TryEnqueue(Overflow, -2) {
		t.Fatal("quiet/overflow enqueue refused")
	}
	rot := q.Shards() + 1
	seenQuiet, seenOverflow := false, false
	for i := 0; i < 2*rot; i++ {
		v, ok := q.TryDequeue()
		if !ok {
			t.Fatalf("dequeue %d empty", i)
		}
		if v == -1 {
			seenQuiet = true
		}
		if v == -2 {
			seenOverflow = true
		}
	}
	if !seenQuiet || !seenOverflow {
		t.Fatalf("after %d dequeues under a hot shard: quiet seen=%v overflow seen=%v (starved)",
			2*rot, seenQuiet, seenOverflow)
	}
}

func TestShardedDequeueBatch(t *testing.T) {
	q := NewSharded[int](2, 16, 16)
	a, b := q.Register(), q.Register()
	for i := 0; i < 5; i++ {
		q.TryEnqueue(a, 100+i)
		q.TryEnqueue(b, 200+i)
	}
	q.TryEnqueue(Overflow, 300)
	dst := make([]int, 4)
	n := q.DequeueBatch(dst)
	if n != 4 {
		t.Fatalf("batch took %d, want 4", n)
	}
	// Round-robin: the first rotation must touch distinct shards.
	if dst[0] == dst[1] {
		t.Fatalf("batch not round-robin: %v", dst[:n])
	}
	total := n
	for {
		m := q.DequeueBatch(dst)
		if m == 0 {
			break
		}
		total += m
	}
	if total != 11 {
		t.Fatalf("drained %d elements, want 11", total)
	}
	if q.DequeueBatch(nil) != 0 {
		t.Fatal("empty dst must take nothing")
	}
}

func TestShardedHighWater(t *testing.T) {
	q := NewSharded[int](2, 16, 16)
	s := q.Register()
	for i := 0; i < 6; i++ {
		q.TryEnqueue(s, i)
	}
	q.TryDequeue()
	q.TryDequeue()
	q.TryEnqueue(Overflow, 9)
	if hw := q.HighWater(); hw != 6 {
		t.Fatalf("HighWater = %d, want 6", hw)
	}
}

// TestShardedOverflowNoDoubleCount is the regression test for the overflow
// accounting bug: with threads registered beyond ShardCount parked on the
// MPMC overflow shard, elements sitting there must be counted exactly once
// — by the consumer-sampled pending high-water and depth sampler — not a
// second time by the embedded ring's own depth tracking.
func TestShardedOverflowNoDoubleCount(t *testing.T) {
	q := NewSharded[int](2, 16, 16)
	var samples []int64
	q.SetDepthSampler(func(d int64) { samples = append(samples, d) })
	a, b := q.Register(), q.Register()
	over := q.Register() // thread beyond ShardCount: routed to overflow
	if over != Overflow {
		t.Fatalf("third registration = %d, want Overflow", over)
	}
	// 2 in each private shard, 3 sitting in overflow: true peak depth 7.
	for i := 0; i < 2; i++ {
		q.TryEnqueue(a, i)
		q.TryEnqueue(b, 10+i)
	}
	for i := 0; i < 3; i++ {
		q.TryEnqueue(over, 20+i)
	}
	if q.Len() != 7 {
		t.Fatalf("Len = %d, want 7", q.Len())
	}
	// Partial drains while overflow elements sit in place.
	dst := make([]int, 3)
	got := q.DequeueBatch(dst)
	got += q.DequeueBatch(dst)
	if got != 6 {
		t.Fatalf("drained %d, want 6", got)
	}
	if q.Len() != 1 {
		t.Fatalf("Len after partial drain = %d, want 1", q.Len())
	}
	if hw := q.HighWater(); hw != 7 {
		t.Fatalf("HighWater = %d, want exactly 7 (single-source accounting)", hw)
	}
	if ohw := q.OverflowHighWater(); ohw != 0 {
		t.Fatalf("embedded overflow ring kept its own high-water (%d); overflow elements double-counted", ohw)
	}
	// The depth sampler saw the pending count per drain: 7 then 4.
	if len(samples) != 2 || samples[0] != 7 || samples[1] != 4 {
		t.Fatalf("depth samples = %v, want [7 4]", samples)
	}
	// A standalone MPMC still tracks its own high-water.
	m := NewMPMC[int](8)
	m.TryEnqueue(1)
	m.TryEnqueue(2)
	if m.HighWater() != 2 {
		t.Fatalf("standalone MPMC HighWater = %d, want 2", m.HighWater())
	}
}

// TestShardedDoorbellMask pins the O(occupied) drain property: with one
// busy shard out of many, the mask holds a single set bit, and drains do
// not disturb the idle shards' bits.
func TestShardedDoorbellMask(t *testing.T) {
	q := NewSharded[int](64, 8, 8) // 65 rotation positions: two mask words
	s := q.Register()
	if q.OccupiedShards() != 0 {
		t.Fatalf("fresh queue OccupiedShards = %d, want 0", q.OccupiedShards())
	}
	q.TryEnqueue(s, 1)
	q.TryEnqueue(s, 2)
	if q.OccupiedShards() != 1 {
		t.Fatalf("OccupiedShards = %d, want 1", q.OccupiedShards())
	}
	q.TryEnqueue(Overflow, 3) // bit 64: exercises the second mask word
	if q.OccupiedShards() != 2 {
		t.Fatalf("OccupiedShards = %d, want 2", q.OccupiedShards())
	}
	for i := 0; i < 3; i++ {
		if _, ok := q.TryDequeue(); !ok {
			t.Fatalf("dequeue %d empty", i)
		}
	}
	if !q.Empty() {
		t.Fatal("queue not empty")
	}
	// Bits clear lazily: one empty DequeueBatch call may leave stale bits,
	// but they never exceed the shards actually touched.
	if n := q.OccupiedShards(); n > 2 {
		t.Fatalf("OccupiedShards = %d after drain, want <= 2", n)
	}
}

// TestShardedConcurrent hammers the queue with real producer goroutines
// (registered and overflow) against the single consumer, verifying nothing
// is lost or duplicated and per-producer FIFO holds. Runs under -race in
// the Makefile race target.
func TestShardedConcurrent(t *testing.T) {
	const (
		regProducers = 3
		ovfProducers = 2
		perProducer  = 2000
	)
	q := NewSharded[int](regProducers, 64, 64)
	total := (regProducers + ovfProducers) * perProducer
	var wg sync.WaitGroup
	for p := 0; p < regProducers+ovfProducers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			shard := Overflow
			if p < regProducers {
				shard = q.Register()
			}
			for i := 0; i < perProducer; i++ {
				for !q.TryEnqueue(shard, p<<16|i) {
				}
			}
		}()
	}
	lastSeq := make([]int, regProducers+ovfProducers)
	for i := range lastSeq {
		lastSeq[i] = -1
	}
	seen := make(map[int]bool, total)
	done := make(chan struct{})
	go func() {
		defer close(done)
		batch := make([]int, 8)
		got := 0
		for got < total {
			n := q.DequeueBatch(batch)
			for _, v := range batch[:n] {
				if seen[v] {
					t.Errorf("value %#x consumed twice", v)
					return
				}
				seen[v] = true
				p, seq := v>>16, v&0xffff
				if seq <= lastSeq[p] {
					t.Errorf("producer %d seq %d after %d (FIFO violated)", p, seq, lastSeq[p])
					return
				}
				lastSeq[p] = seq
			}
			got += n
		}
	}()
	wg.Wait()
	<-done
	if len(seen) != total {
		t.Fatalf("consumed %d values, produced %d", len(seen), total)
	}
}

// The benchmarks below are the single-threaded instruction-path comparison
// behind the sharded design: even before any contention, a private-shard
// submission (SPSC: plain stores) beats the shared overflow path (MPMC:
// CAS + sequence store). Under concurrent producers the gap widens — the
// MPMC CAS line becomes the serialization point — which is what
// cmd/mtbench measures end to end.

func BenchmarkShardedPrivateEnqDeq(b *testing.B) {
	q := NewSharded[int](4, 1<<12, 1<<12)
	s := q.Register()
	var buf [1]int
	for i := 0; i < b.N; i++ {
		q.TryEnqueue(s, i)
		q.DequeueBatch(buf[:])
	}
}

func BenchmarkShardedOverflowEnqDeq(b *testing.B) {
	q := NewSharded[int](4, 1<<12, 1<<12)
	var buf [1]int
	for i := 0; i < b.N; i++ {
		q.TryEnqueue(Overflow, i)
		q.DequeueBatch(buf[:])
	}
}
