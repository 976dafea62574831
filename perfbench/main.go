// Command perfbench is the repository's benchmark. It runs one named
// workload on the simulator (sim, apps/qcd, bench) or on the real offload
// path (rt, internal/transport) for a fixed wall-clock budget, checks that
// every output is correct, and prints its metrics: the end-to-end metrics
// untraced (--trace 0), or the per-layer metrics from a separate traced run
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the root of a checkout; run.sh builds and runs this):
//
//	bash perfbench/run.sh --workload rt-rate-loopback --seed 3 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runCfg is what one invocation asks of a workload.
type runCfg struct {
	seed   int64
	budget time.Duration // measured wall time
	trace  bool
}

// report is what a workload hands back.
type report struct {
	checks  checker
	metrics *metricSet
	notes   []string // extra human-readable lines
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is one named set of inputs.
type workload struct {
	name string
	run  func(cfg runCfg) (*report, error)
}

var workloads = []workload{
	{"sim-dslash-256", runDslash},
	{"sim-p2p-sweep", runP2P},
	{"rt-rate-loopback", runRate},
	{"rt-pingpong-unix", runPingPong},
}

// endToEnd and perLayer are the metric names every workload reports with
// --trace 0 and --trace 1 respectively.
var endToEnd = []string{"setup_s", "run_s", "peak_rss_mb", "msgs_per_s.offload", "msgs_per_s.direct"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured wall-clock seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, len(workloads))
		for i, x := range workloads {
			names[i] = x.name
		}
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(names, ", "))
		return 2
	}
	cfg := runCfg{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	fmt.Fprintf(out, "workload=%s seed=%d seconds=%g trace=%d %s\n", w.name, cfg.seed, *seconds, *trace, fingerprint())

	rep, err := w.run(cfg)
	if err == nil {
		err = rep.metrics.err()
	}
	if err == nil {
		err = checkNames(rep.metrics, cfg.trace)
	}
	if err != nil {
		out.Flush()
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, n := range rep.notes {
		fmt.Fprintln(out, n)
	}
	for _, n := range rep.metrics.names() {
		m := rep.metrics.m[n]
		fmt.Fprintf(out, "%-34s %16s %s\n", n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	c := rep.checks
	fmt.Fprintf(out, "error_rate %g (%d failed of %d attempted)\n", ratio(float64(c.failed), float64(c.attempted)), c.failed, c.attempted)
	if c.failed > 0 {
		fmt.Fprintf(out, "first failure: %s\n", c.first)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{c.failed == 0 && c.attempted > 0, c.attempted, c.failed, rep.metrics.m})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	return 0
}

// checkNames verifies a run reported exactly the metric names its mode
// promises, so that every workload prints the same set.
func checkNames(ms *metricSet, trace bool) error {
	want := endToEnd
	if trace {
		want = perLayerNames()
	}
	have := ms.names()
	w := append([]string(nil), want...)
	sort.Strings(w)
	if strings.Join(w, ",") != strings.Join(have, ",") {
		return fmt.Errorf("metric names differ from the promised set:\n  want %v\n  have %v", w, have)
	}
	return nil
}

// fingerprint describes the host a measurement was taken on.
func fingerprint() string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s kernel=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel)
}

// errStop ends a repeat loop early without an error.
var errStop = errors.New("stop")

// repeat calls fn until budget has elapsed and fn ran at least minRuns
// times, or until fn returns errStop. It returns the number of completed
// calls. Each call starts on a collected heap, so that one rep's garbage
// lands in neither the next rep's time nor its peak memory.
func repeat(budget time.Duration, minRuns int, fn func(i int) error) (int, error) {
	start := time.Now()
	i := 0
	for ; i < minRuns || time.Since(start) < budget; i++ {
		runtime.GC()
		if err := fn(i); err == errStop {
			return i + 1, nil
		} else if err != nil {
			return i, err
		}
	}
	return i, nil
}
