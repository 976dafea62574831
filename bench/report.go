package bench

// The BENCH documents (BENCH_mtscale.json, BENCH_topo.json,
// BENCH_chaos.json, BENCH_net.json) are owned here: each schema has one
// report type, which validates itself and flattens itself into the named
// metrics cmd/benchdiff compares between generations.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Report is one BENCH document.
type Report interface {
	// Validate checks the document's structure and, on full-size
	// documents, its perf gates and headline claims.
	Validate() error
	// Metrics flattens the document into named metrics, in document order.
	Metrics() []Metric
}

// schemas maps every known schema tag to a constructor of its report type.
var schemas = []struct {
	tag string
	new func() Report
}{
	{MTScaleSchema, func() Report { return new(MTScaleReport) }},
	{TopoSchema, func() Report { return new(TopoReport) }},
	{ChaosSchema, func() Report { return new(ChaosReport) }},
	{NetSchema, func() Report { return new(NetReport) }},
}

// ReadReport loads a BENCH document, decoding it into the report type its
// "schema" field names.
func ReadReport(path string) (string, Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	var head struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return "", nil, fmt.Errorf("%s: %w", path, err)
	}
	tags := make([]string, len(schemas))
	for i, s := range schemas {
		tags[i] = s.tag
		if s.tag != head.Schema {
			continue
		}
		rep := s.new()
		if err := json.Unmarshal(data, rep); err != nil {
			return "", nil, fmt.Errorf("%s: %w", path, err)
		}
		return head.Schema, rep, nil
	}
	return "", nil, fmt.Errorf("%s: unknown schema %q (want %s)", path, head.Schema, strings.Join(tags, ", "))
}

// ValidateFile loads a BENCH document and validates it, returning its
// schema tag.
func ValidateFile(path string) (string, error) {
	schema, rep, err := ReadReport(path)
	if err != nil {
		return "", err
	}
	return schema, rep.Validate()
}

// WriteReport validates a freshly generated document and writes it to path
// as indented JSON.
func WriteReport(path string, rep Report) error {
	if err := rep.Validate(); err != nil {
		return fmt.Errorf("generated report failed validation: %w", err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// GateThreads is the thread count whose rows carry the mtscale and net
// perf gates: the saturated end of each sweep. Documents without such rows
// (smoke sweeps) get structural validation only.
const GateThreads = 16

// MetricClass selects a metric's tolerance band and gating rule.
type MetricClass int

const (
	// ClassVirtual: deterministic virtual-time result; tight band.
	ClassVirtual MetricClass = iota
	// ClassWall: wall-clock measurement; wide band.
	ClassWall
	// ClassHard: correctness tripwire; any growth past zero regresses.
	ClassHard
	// ClassInfo: reported, never gates (duty fractions, batch sizes).
	ClassInfo
)

func (c MetricClass) String() string {
	switch c {
	case ClassVirtual:
		return "virtual"
	case ClassWall:
		return "wall"
	case ClassHard:
		return "hard"
	}
	return "info"
}

// Direction says which way a metric improves.
type Direction int

const (
	LowerBetter Direction = iota
	HigherBetter
)

// Metric is one named measurement of a BENCH document.
type Metric struct {
	Key   string
	Value float64
	Class MetricClass
	Dir   Direction
}

// metrics accumulates a document's flattened metrics.
type metrics []Metric

func (m *metrics) add(class MetricClass, dir Direction, val float64, format string, args ...any) {
	*m = append(*m, Metric{Key: fmt.Sprintf(format, args...), Value: val, Class: class, Dir: dir})
}
