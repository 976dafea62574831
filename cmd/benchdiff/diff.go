package main

// The diff engine: documents decode (package bench owns every schema) to
// an ordered list of named metrics, each tagged with a class that selects
// its tolerance band and direction; diffMetrics joins two generations by
// metric key and classifies every pair as ok / better / regression / info.

import (
	"fmt"
	"io"
	"math"

	"mpioffload/bench"
)

// doc is a decoded benchmark document.
type doc struct {
	schema  string
	metrics []bench.Metric
}

type tolerances struct {
	virtual, wall float64
}

// loadDoc reads a benchmark document and flattens it to metrics through
// its schema's report type.
func loadDoc(path string) (*doc, error) {
	schema, rep, err := bench.ReadReport(path)
	if err != nil {
		return nil, err
	}
	d := &doc{schema: schema, metrics: rep.Metrics()}
	if len(d.metrics) == 0 {
		return nil, fmt.Errorf("%s: no metrics in document", path)
	}
	return d, nil
}

// verdict is the classification of one compared metric.
type verdict int

const (
	vOK verdict = iota
	vBetter
	vRegression
	vInfo
	vAdded
	vRemoved
)

func (v verdict) String() string {
	switch v {
	case vOK:
		return "ok"
	case vBetter:
		return "better"
	case vRegression:
		return "REGRESSION"
	case vInfo:
		return "info"
	case vAdded:
		return "added"
	}
	return "removed"
}

// diffRow is one line of the trend table.
type diffRow struct {
	key      string
	class    bench.MetricClass
	old, new float64
	delta    float64 // relative change, NaN when old == 0
	verdict  verdict
}

// diffMetrics joins the two generations in old-document order (new-only
// metrics append at the end) and classifies every pair.
func diffMetrics(olds, news []bench.Metric, tol tolerances) []diffRow {
	newBy := make(map[string]bench.Metric, len(news))
	for _, m := range news {
		newBy[m.Key] = m
	}
	var rows []diffRow
	for _, om := range olds {
		nm, ok := newBy[om.Key]
		if !ok {
			rows = append(rows, diffRow{key: om.Key, class: om.Class, old: om.Value, new: math.NaN(), verdict: vRemoved})
			continue
		}
		delete(newBy, om.Key)
		rows = append(rows, compare(om, nm, tol))
	}
	for _, nm := range news {
		if _, stillNew := newBy[nm.Key]; stillNew {
			rows = append(rows, diffRow{key: nm.Key, class: nm.Class, old: math.NaN(), new: nm.Value, verdict: vAdded})
		}
	}
	return rows
}

func compare(om, nm bench.Metric, tol tolerances) diffRow {
	row := diffRow{key: om.Key, class: om.Class, old: om.Value, new: nm.Value}
	rel := math.NaN()
	if om.Value != 0 {
		rel = (nm.Value - om.Value) / math.Abs(om.Value)
	}
	row.delta = rel

	switch om.Class {
	case bench.ClassInfo:
		row.verdict = vInfo
		return row
	case bench.ClassHard:
		// Tripwires gate on growth, bands be damned; 0 → 0 is the healthy
		// steady state.
		switch {
		case nm.Value > om.Value:
			row.verdict = vRegression
		case nm.Value < om.Value:
			row.verdict = vBetter
		default:
			row.verdict = vOK
		}
		return row
	}

	band := tol.virtual
	if om.Class == bench.ClassWall {
		band = tol.wall
	}
	// Signed "worse" fraction: positive means the metric moved the wrong way.
	worse := rel
	if om.Dir == bench.HigherBetter {
		worse = -rel
	}
	switch {
	case om.Value == 0 && nm.Value == 0:
		row.verdict = vOK
	case om.Value == 0:
		// No baseline to band against; a metric appearing from zero is
		// surfaced but cannot gate.
		row.verdict = vInfo
	case worse > band:
		row.verdict = vRegression
	case worse < -band:
		row.verdict = vBetter
	default:
		row.verdict = vOK
	}
	return row
}

// writeTable renders the markdown trend table and returns the regression
// count.
func writeTable(w io.Writer, schema, oldPath, newPath string, rows []diffRow) int {
	fmt.Fprintf(w, "## benchdiff: %s\n\n", schema)
	fmt.Fprintf(w, "old: `%s` → new: `%s`\n\n", oldPath, newPath)
	fmt.Fprintln(w, "| metric | class | old | new | Δ | status |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|---|")
	regressions := 0
	for _, r := range rows {
		if r.verdict == vRegression {
			regressions++
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s | %s | %s |\n",
			r.key, r.class, num(r.old), num(r.new), pct(r.delta), r.verdict)
	}
	return regressions
}

func num(v float64) string {
	if math.IsNaN(v) {
		return "—"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3g", v)
}

func pct(v float64) string {
	if math.IsNaN(v) {
		return "—"
	}
	return fmt.Sprintf("%+.1f%%", v*100)
}
