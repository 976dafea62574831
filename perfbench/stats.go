package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 needs at least 1000 samples, a p90 at least 100.
const minTail = 10

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between the closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples of n that lie strictly above the q-quantile's
// rank.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)-1e-9))
}

// percentile returns the q-quantile of xs, or an error when fewer than
// minTail samples lie beyond it: a tail percentile read from too few
// samples is the maximum in disguise.
func percentile(xs []float64, q float64) (float64, error) {
	if b := beyond(len(xs), q); b < minTail {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d",
			100*q, minTail, b, len(xs))
	}
	return quantile(xs, q), nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal metric or workload name: a letter
// or digit followed by at most 63 letters, digits, '_', '.' or '-'.
func validName(s string) bool { return nameRE.MatchString(s) }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics, rejecting bad names, units and
// non-finite values at the point they are recorded.
type metricSet struct {
	m    map[string]metric
	errs []error
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

func (s *metricSet) set(name, unit string, v float64) {
	switch {
	case !validName(name):
		s.errs = append(s.errs, fmt.Errorf("bad metric name %q", name))
	case !unitRE.MatchString(unit):
		s.errs = append(s.errs, fmt.Errorf("metric %s: bad unit %q", name, unit))
	case math.IsNaN(v) || math.IsInf(v, 0):
		s.errs = append(s.errs, fmt.Errorf("metric %s: value %v is not finite", name, v))
	default:
		if _, dup := s.m[name]; dup {
			s.errs = append(s.errs, fmt.Errorf("metric %s recorded twice", name))
		}
		s.m[name] = metric{Value: v, Unit: unit}
	}
}

// err returns the first recording error, if any.
func (s *metricSet) err() error {
	if len(s.errs) > 0 {
		return s.errs[0]
	}
	return nil
}

// names returns the recorded metric names in sorted order.
func (s *metricSet) names() []string {
	out := make([]string, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checker counts correctness checks: every check is one attempted
// operation, and a check that does not hold is one failed operation.
type checker struct {
	attempted, failed int64
	first             string // description of the first failure
}

// check records one operation; ok=false counts it as failed.
func (c *checker) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if c.first == "" {
			c.first = fmt.Sprintf(format, args...)
		}
	}
}

// merge adds o's counts into c.
func (c *checker) merge(o checker) {
	c.attempted += o.attempted
	c.failed += o.failed
	if c.first == "" {
		c.first = o.first
	}
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not touch).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
