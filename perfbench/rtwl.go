package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"mpioffload/internal/obs/telemetry"
	"mpioffload/internal/transport"
	"mpioffload/rt"
)

// rtWatchdog bounds every WaitErr: a hang becomes a counted failure
// instead of wedging the run.
const rtWatchdog = 10 * time.Second

// pattern returns the seed-derived payload bytes of one tag's messages.
func pattern(seed int64, tag, size int) []byte {
	b := make([]byte, size)
	rand.New(rand.NewSource(seed*7919 + int64(tag))).Read(b)
	return b
}

// stamp writes message seq of a stream into buf: the pattern with the
// sequence number XORed into its first 8 bytes.
func stamp(buf, pat []byte, seq uint64) {
	copy(buf, pat)
	binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(pat)^seq)
}

// verify checks that buf holds message seq of the stream.
func verify(buf, pat []byte, seq uint64) bool {
	return len(buf) == len(pat) &&
		binary.LittleEndian.Uint64(buf)^binary.LittleEndian.Uint64(pat) == seq &&
		bytes.Equal(buf[8:], pat[8:])
}

// timedEP wraps a transport endpoint to time Send and the bound Handler
// (rt's delivery upcall) as transport-layer spans.
type timedEP struct {
	transport.Endpoint
	rec *spanRec
}

func (e *timedEP) Send(f transport.Frame) error {
	start := e.rec.now()
	err := e.Endpoint.Send(f)
	e.rec.add(layerTransport, kindSend, start)
	return err
}

func (e *timedEP) Bind(h transport.Handler) {
	e.Endpoint.Bind(func(f transport.Frame) {
		start := e.rec.now()
		h(f)
		e.rec.add(layerTransport, kindDeliver, start)
	})
}

// rtSide is one mode's cluster with the workload's state on it.
type rtSide struct {
	mode rt.Mode
	c    *rt.Cluster
	mesh transport.Mesh // the unwrapped mesh, for Endpoint.Stats
	eps  []*timedEP     // traced sides only
	recs []*spanRec     // the side's load-thread recorders (traced only)
	// rep runs the side's share of one rep and returns the messages moved.
	rep   func() (int, error)
	close func()
	ck    func() checker // the side's correctness counts
	lat   [][]float64    // one-way latency samples (us) per size, ping-pong only
}

// newRTCluster builds a 2-rank cluster over mesh (nil: the default
// loopback). A traced side (epoch not zero) wraps its endpoints in timers.
func newRTCluster(mode rt.Mode, mesh transport.Mesh, epoch time.Time) *rtSide {
	s := &rtSide{mode: mode}
	if mesh == nil {
		mesh = transport.NewLoopback(2)
	}
	s.mesh = mesh
	if !epoch.IsZero() {
		for i := 0; i < mesh.Size(); i++ {
			s.eps = append(s.eps, &timedEP{Endpoint: mesh.Endpoint(i), rec: newSpanRec(epoch, 1<<19)})
		}
		mesh = transport.WrapMesh(mesh, func(ep transport.Endpoint) transport.Endpoint {
			return s.eps[ep.Rank()]
		})
	}
	s.c = rt.NewClusterOpts(2, mode, rt.Options{Transport: mesh})
	s.c.SetWatchdog(rtWatchdog)
	return s
}

// spanRecs returns every recorder of a traced side.
func (s *rtSide) spanRecs() []*spanRec {
	out := append([]*spanRec(nil), s.recs...)
	for _, e := range s.eps {
		out = append(out, e.rec)
	}
	return out
}

func (s *rtSide) setTracing(on bool) {
	for _, r := range s.spanRecs() {
		r.setOn(on)
	}
}

// rtWorkload describes one real-path workload.
type rtWorkload struct {
	// build makes one mode's side; epoch is zero for untraced sides.
	build func(mode rt.Mode, seed int64, epoch time.Time) (*rtSide, error)
	// layers, when set, adds workload-specific per-layer values from the
	// untraced Offload side of a traced run.
	layers func(off *rtSide, vals layerVals) error
}

// modes is the order sides run in a rep; it alternates between reps so
// that neither mode always runs on a warmer host.
var modes = []rt.Mode{rt.Offload, rt.Direct}

// phaseOut is what a phase of reps measured.
type phaseOut struct {
	reps  []float64             // wall seconds per rep
	peaks []float64             // peak RSS per rep (MB), when sampled
	rates map[rt.Mode][]float64 // messages per second, per mode and rep
}

// phase runs reps over both sides until budget elapses (or stop says so).
// rss, when not nil, samples each rep's peak resident size.
func phase(sides map[rt.Mode]*rtSide, budget time.Duration, minReps int, rss *rssSampler, stop func() bool) (phaseOut, error) {
	out := phaseOut{rates: map[rt.Mode][]float64{}}
	_, err := repeat(budget, minReps, func(i int) error {
		if rss != nil {
			rss.reset()
		}
		var total float64
		for j := range modes {
			s := sides[modes[(i+j)%len(modes)]]
			t := time.Now()
			n, err := s.rep()
			if err != nil {
				return err
			}
			d := time.Since(t).Seconds()
			total += d
			out.rates[s.mode] = append(out.rates[s.mode], float64(n)/d)
		}
		out.reps = append(out.reps, total)
		if rss != nil {
			out.peaks = append(out.peaks, rss.takeMB())
		}
		if stop != nil && stop() {
			return errStop
		}
		return nil
	})
	return out, err
}

func buildSides(w *rtWorkload, seed int64, epoch time.Time) (map[rt.Mode]*rtSide, error) {
	sides := map[rt.Mode]*rtSide{}
	for _, m := range modes {
		s, err := w.build(m, seed, epoch)
		if err != nil {
			closeSides(sides)
			return nil, err
		}
		sides[m] = s
	}
	return sides, nil
}

func closeSides(sides map[rt.Mode]*rtSide) {
	for _, s := range sides {
		s.close()
	}
}

// setupTrial times building every mode's side up to its first completed
// message. Closing is not part of set-up.
func (w *rtWorkload) setupTrial(seed int64) (float64, error) {
	var total float64
	for _, m := range modes {
		t := time.Now()
		s, err := w.build(m, seed, time.Time{})
		if err != nil {
			return 0, err
		}
		th0, th1 := s.c.Rank(0).RegisterThread(), s.c.Rank(1).RegisterThread()
		buf := []byte{1}
		rh := th1.Irecv(buf, 0, 0)
		sh := th0.Isend([]byte{1}, 1, 0)
		_, err1 := th0.WaitErr(sh)
		_, err2 := th1.WaitErr(rh)
		total += time.Since(t).Seconds()
		s.close()
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("set-up message: %v %v", err1, err2)
		}
	}
	return total, nil
}

func runRTWorkload(w *rtWorkload, cfg runCfg) (*report, error) {
	rep := &report{metrics: newMetricSet()}
	var setups []float64
	if !cfg.trace {
		_, err := repeat(time.Second, 11, func(i int) error {
			s, err := w.setupTrial(cfg.seed)
			setups = append(setups, s)
			if err == nil && i >= 500 {
				return errStop
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	sides, err := buildSides(w, cfg.seed, time.Time{})
	if err != nil {
		return nil, err
	}
	collect := func(sides map[rt.Mode]*rtSide) {
		for _, s := range sides {
			rep.checks.merge(s.ck())
		}
	}
	budget := cfg.budget
	if cfg.trace {
		budget /= 3
	}
	rss, err := startRSS()
	if err != nil {
		closeSides(sides)
		return nil, err
	}
	defer rss.close()
	// Warm-up rep: pools, buffers and connections exist before timing.
	if _, err := phase(sides, 0, 1, nil, nil); err != nil {
		closeSides(sides)
		return nil, err
	}
	for _, s := range sides {
		for i := range s.lat {
			s.lat[i] = s.lat[i][:0]
		}
	}
	po, err := phase(sides, budget, 3, rss, nil)
	if err != nil {
		closeSides(sides)
		return nil, err
	}
	reps := po.reps
	if !cfg.trace {
		closeSides(sides)
		collect(sides)
		ms := rep.metrics
		ms.set("setup_s", "s", median(setups))
		ms.set("run_s", "s", median(reps))
		ms.set("peak_rss_mb", "MB", median(po.peaks))
		ms.set("msgs_per_s.offload", "1/s", median(po.rates[rt.Offload]))
		ms.set("msgs_per_s.direct", "1/s", median(po.rates[rt.Direct]))
		rep.notef("samples: setup_s n=%d, run_s, peak_rss_mb and msgs_per_s n=%d reps", len(setups), len(reps))
		rep.notef("run_s quartiles %.4g %.4g %.4g; setup_s quartiles %.4g %.4g %.4g; peak_rss_mb quartiles %.4g %.4g %.4g",
			quantile(reps, 0.25), median(reps), quantile(reps, 0.75),
			quantile(setups, 0.25), median(setups), quantile(setups, 0.75),
			quantile(po.peaks, 0.25), median(po.peaks), quantile(po.peaks, 0.75))
		return rep, nil
	}

	vals := layerVals{}
	if w.layers != nil {
		err = w.layers(sides[rt.Offload], vals)
	}
	closeSides(sides)
	collect(sides)
	if err != nil {
		return nil, err
	}
	if err := w.traceRun(cfg, reps, vals, rep); err != nil {
		return nil, err
	}
	return rep, vals.emit(rep.metrics)
}

// traceRun runs the traced two thirds of a traced run: sides built over
// timed endpoints, spans around every rt call of the Offload side, rt
// latency histograms and telemetry on, and a CPU profile.
func (w *rtWorkload) traceRun(cfg runCfg, plain []float64, vals layerVals, rep *report) error {
	reg := telemetry.New()
	sides, err := buildSides(w, cfg.seed, time.Now())
	if err != nil {
		return err
	}
	defer func() {
		closeSides(sides)
		for _, s := range sides {
			rep.checks.merge(s.ck())
		}
	}()
	if _, err := phase(sides, 0, 1, nil, nil); err != nil {
		return err
	}
	off := sides[rt.Offload]
	recs := off.spanRecs()
	off.setTracing(true)
	off.c.SetStatsEnabled(true)
	off.c.AttachTelemetry(reg)
	stats0 := meshStats(off.mesh)
	ranks0 := rankCounts(off.c)
	used := 0
	perRep := 0
	// Stop before a rep could overflow a recorder, so every traced rep is
	// recorded whole.
	stop := func() bool {
		n := 0
		room := 1 << 62
		for _, r := range recs {
			n += len(r.spans)
			room = min(room, r.room())
		}
		perRep = max(perRep, n-used)
		used = n
		return room < 2*perRep
	}
	prof, err := startProfile()
	if err != nil {
		return err
	}
	mem0 := readMem()
	po, err := phase(sides, cfg.budget*2/3, 2, nil, stop)
	reps := po.reps
	md := memSince(mem0)
	if perr := prof.stop(vals, max(len(reps), 1)); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	off.setTracing(false)
	n := float64(len(reps))
	st := meshStats(off.mesh)
	rc := rankCounts(off.c)
	msgs := float64(rc.sends - ranks0.sends)
	vals["transport.frames"] = float64(st.FramesSent-stats0.FramesSent) / n
	vals["transport.bytes"] = float64(st.BytesSent-stats0.BytesSent) / n
	vals["transport.errors"] = float64(st.SendErrs)
	vals["rt.polls_per_completion"] = ratio(float64(rc.polls-ranks0.polls), float64(rc.sends-ranks0.sends+rc.recvs-ranks0.recvs))
	vals["go.allocs_per_msg"] = md.mallocs / msgs
	vals["go.gc_cycles"] = md.gcs / n
	duty, err := meanGauge(reg, "rt_agent_duty")
	if err != nil {
		return err
	}
	vals["rt.agent_duty"] = duty
	cs := off.c.Stats()
	for _, h := range []struct {
		name string
		q50  int64
		q99  int64
		n    int64
	}{
		{"rt.queue_wait_ns", cs.QueueWait.P50(), cs.QueueWait.P99(), cs.QueueWait.Count},
		{"rt.service_ns", cs.Service.P50(), cs.Service.P99(), cs.Service.Count},
	} {
		if beyond(int(h.n), 0.99) < minTail {
			return fmt.Errorf("%s: %d samples are too few for a p99", h.name, h.n)
		}
		vals[h.name+".p50"] = float64(h.q50)
		vals[h.name+".p99"] = float64(h.q99)
	}
	for _, t := range []struct {
		name string
		kind uint8
	}{
		{"rt.post_ns", kindPost}, {"rt.wait_ns", kindWait},
		{"transport.send_ns", kindSend}, {"transport.deliver_ns", kindDeliver},
	} {
		if err := vals.tail(t.name, durations(t.kind, recs...), 1); err != nil {
			return err
		}
	}
	self := layerSelf(recs...)
	vals["harness.span_self_s"] = float64(self[layerHarness]) / 1e9 / n
	vals["rt.span_self_s"] = float64(self[layerRT]) / 1e9 / n
	vals["transport.span_self_s"] = float64(self[layerTransport]) / 1e9 / n
	var drops int64
	for _, r := range recs {
		drops += r.drops
	}
	vals["trace.spans_dropped"] = float64(drops)
	vals["trace.reps"] = n
	vals["trace.overhead"] = median(reps) / median(plain)
	rep.notef("samples: %d untraced reps, %d traced reps, %d offload messages traced; rt histograms n=%d",
		len(plain), len(reps), int64(msgs), cs.QueueWait.Count)
	return nil
}

// meshStats sums the traffic counters of a mesh's endpoints.
func meshStats(m transport.Mesh) transport.Stats {
	var s transport.Stats
	for i := 0; i < m.Size(); i++ {
		s.Add(m.Endpoint(i).Stats())
	}
	return s
}

type rankCount struct{ sends, recvs, polls int64 }

func rankCounts(c *rt.Cluster) rankCount {
	var rc rankCount
	for i := 0; i < c.Size(); i++ {
		r := c.Rank(i)
		rc.sends += r.Sends.Load()
		rc.recvs += r.Recvs.Load()
		rc.polls += r.Polls.Load()
	}
	return rc
}

// meanGauge averages every series of a gauge family in reg.
func meanGauge(reg *telemetry.Registry, family string) (float64, error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return 0, err
	}
	var vals map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &vals); err != nil {
		return 0, fmt.Errorf("telemetry json: %w", err)
	}
	var sum float64
	n := 0
	for k, raw := range vals {
		if !strings.HasPrefix(k, family+"{") {
			continue
		}
		var v float64
		if err := json.Unmarshal(raw, &v); err != nil {
			return 0, fmt.Errorf("%s: %w", k, err)
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("telemetry has no %s series", family)
	}
	return sum / float64(n), nil
}

// ---- rt-rate-loopback ----

// Two load goroutines (nproc is 2 on the reference host), each owning one
// tag, post a window of Irecvs on rank 1, then the window's Isends on rank
// 0, then wait for all of them: a closed loop in which each rank sees two
// concurrent submitters.
const (
	rateLoaders  = 2
	rateMsgBytes = 64
	rateWindow   = 64
	rateWindows  = 200 // per loader per rep
)

type rateLoader struct {
	tag        int
	snd, rcv   *rt.Thread
	pat        []byte
	sbuf, rbuf [][]byte
	sh, rh     []rt.Handle
	seq        uint64 // next sequence number sent
	recvd      uint64 // next sequence number expected
	rec        *spanRec
	ck         checker
}

func (l *rateLoader) window() {
	start := l.rec.now()
	for i := range l.rh {
		t := l.rec.now()
		l.rh[i] = l.rcv.Irecv(l.rbuf[i], 0, l.tag)
		l.rec.add(layerRT, kindPost, t)
	}
	for i := range l.sh {
		stamp(l.sbuf[i], l.pat, l.seq)
		l.seq++
		t := l.rec.now()
		l.sh[i] = l.snd.Isend(l.sbuf[i], 1, l.tag)
		l.rec.add(layerRT, kindPost, t)
	}
	for i := range l.sh {
		t := l.rec.now()
		_, err := l.snd.WaitErr(l.sh[i])
		l.rec.add(layerRT, kindWait, t)
		if err != nil {
			l.ck.check(false, "tag %d send: %v", l.tag, err)
		}
	}
	for i := range l.rh {
		t := l.rec.now()
		n, err := l.rcv.WaitErr(l.rh[i])
		l.rec.add(layerRT, kindWait, t)
		l.ck.check(err == nil && n == rateMsgBytes && verify(l.rbuf[i], l.pat, l.recvd),
			"tag %d message %d: err=%v n=%d or wrong payload/order", l.tag, l.recvd, err, n)
		l.recvd++
	}
	l.rec.add(layerHarness, kindOther, start)
}

func buildRate(mode rt.Mode, seed int64, epoch time.Time) (*rtSide, error) {
	s := newRTCluster(mode, nil, epoch)
	loaders := make([]*rateLoader, rateLoaders)
	for i := range loaders {
		l := &rateLoader{
			tag: i + 1,
			snd: s.c.Rank(0).RegisterThread(), rcv: s.c.Rank(1).RegisterThread(),
			pat: pattern(seed, i+1, rateMsgBytes),
			sh:  make([]rt.Handle, rateWindow), rh: make([]rt.Handle, rateWindow),
		}
		for j := 0; j < rateWindow; j++ {
			l.sbuf = append(l.sbuf, make([]byte, rateMsgBytes))
			l.rbuf = append(l.rbuf, make([]byte, rateMsgBytes))
		}
		if !epoch.IsZero() && mode == rt.Offload {
			l.rec = newSpanRec(epoch, 1<<19)
			s.recs = append(s.recs, l.rec)
		}
		loaders[i] = l
	}
	s.rep = func() (int, error) {
		var wg sync.WaitGroup
		for _, l := range loaders {
			wg.Add(1)
			go func(l *rateLoader) {
				defer wg.Done()
				for w := 0; w < rateWindows; w++ {
					l.window()
				}
			}(l)
		}
		wg.Wait()
		return rateLoaders * rateWindows * rateWindow, nil
	}
	s.close = s.c.Close
	s.ck = func() checker {
		var c checker
		for _, l := range loaders {
			c.merge(l.ck)
		}
		return c
	}
	return s, nil
}

func runRate(cfg runCfg) (*report, error) {
	return runRTWorkload(&rtWorkload{build: buildRate}, cfg)
}

// ---- rt-pingpong-unix ----

// One measured thread on rank 0 and one echo thread on rank 1 exchange
// blocking Send/Recv round trips over Unix-domain sockets.
var ppSizes = []struct {
	name        string
	size, iters int
}{
	{"8B", 8, 400},
	{"64KiB", 64 << 10, 200},
}

// ppPlan tells the echo thread what the next burst of round trips is.
type ppPlan struct{ tag, size, iters int }

func buildPingPong(mode rt.Mode, seed int64, epoch time.Time) (*rtSide, error) {
	mesh, err := transport.NewSocketMesh("unix", 2)
	if err != nil {
		return nil, fmt.Errorf("unix socket mesh: %w", err)
	}
	s := newRTCluster(mode, mesh, epoch)
	var rec *spanRec
	if !epoch.IsZero() && mode == rt.Offload {
		rec = newSpanRec(epoch, 1<<19)
		s.recs = append(s.recs, rec)
	}
	me, peer := s.c.Rank(0).RegisterThread(), s.c.Rank(1).RegisterThread()
	pats := make([][]byte, len(ppSizes))
	for i, p := range ppSizes {
		pats[i] = pattern(seed, i+1, p.size)
	}
	sbuf, rbuf := make([]byte, 64<<10), make([]byte, 64<<10)
	ebuf := make([]byte, 64<<10)
	lat := make([][]float64, len(ppSizes))
	var ck, echoCk checker
	seq := make([]uint64, len(ppSizes)+1) // next sequence number per tag
	plans := make(chan ppPlan)
	done := make(chan struct{})
	go func() {
		defer close(done)
		eseq := make([]uint64, len(ppSizes)+1)
		for p := range plans {
			pat := pats[p.tag-1]
			for i := 0; i < p.iters; i++ {
				n, err := peer.WaitErr(peer.Irecv(ebuf, 0, p.tag))
				ok := err == nil && n == p.size &&
					binary.LittleEndian.Uint64(ebuf)^binary.LittleEndian.Uint64(pat) == eseq[p.tag]
				echoCk.check(ok, "echo tag %d message %d: err=%v n=%d or out of order", p.tag, eseq[p.tag], err, n)
				eseq[p.tag]++
				if _, err := peer.WaitErr(peer.Isend(ebuf[:p.size], 0, p.tag)); err != nil {
					echoCk.check(false, "echo send: %v", err)
				}
			}
		}
	}()
	s.rep = func() (int, error) {
		msgs := 0
		for i, p := range ppSizes {
			tag := i + 1
			plans <- ppPlan{tag, p.size, p.iters}
			for j := 0; j < p.iters; j++ {
				stamp(sbuf[:p.size], pats[i], seq[tag])
				start := rec.now()
				t0 := time.Now()
				t := rec.now()
				h := me.Isend(sbuf[:p.size], 1, tag)
				rec.add(layerRT, kindPost, t)
				t = rec.now()
				_, err1 := me.WaitErr(h)
				rec.add(layerRT, kindWait, t)
				t = rec.now()
				h = me.Irecv(rbuf, 1, tag)
				rec.add(layerRT, kindPost, t)
				t = rec.now()
				n, err2 := me.WaitErr(h)
				rec.add(layerRT, kindWait, t)
				rtt := time.Since(t0)
				rec.add(layerHarness, kindOther, start)
				ck.check(err1 == nil && err2 == nil && n == p.size && verify(rbuf[:p.size], pats[i], seq[tag]),
					"%s round trip %d: err=%v/%v n=%d or wrong echo", p.name, seq[tag], err1, err2, n)
				seq[tag]++
				lat[i] = append(lat[i], float64(rtt)/2/1e3)
				msgs += 2
			}
		}
		return msgs, nil
	}
	s.close = func() {
		close(plans)
		<-done
		s.c.Close()
	}
	s.ck = func() checker {
		c := ck
		c.merge(echoCk)
		return c
	}
	s.lat = lat
	return s, nil
}

func runPingPong(cfg runCfg) (*report, error) {
	return runRTWorkload(&rtWorkload{
		build: buildPingPong,
		layers: func(off *rtSide, vals layerVals) error {
			for i, p := range ppSizes {
				if err := vals.tail("rt.oneway_us."+p.name, off.lat[i], 1); err != nil {
					return err
				}
			}
			return nil
		},
	}, cfg)
}
