package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure. Samples is how many measurements it
// summarizes; it is printed in the table, not in the JSON line.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
}

// report is one run's outcome.
type report struct {
	workload  string
	attempted int
	failed    int
	metrics   map[string]metric
	order     []string
	notes     []string
	// bypassed are the name prefixes of layers this workload never
	// reaches (or cannot observe); they report 0 with no samples.
	bypassed []string
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]metric{}}
}

func (r *report) set(name string, value float64, unit string, samples int) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit, Samples: samples}
}

// bypass marks layers, by metric-name prefix, as not on this
// workload's path.
func (r *report) bypass(prefixes ...string) { r.bypassed = append(r.bypassed, prefixes...) }

func (r *report) bypasses(name string) bool {
	for _, p := range r.bypassed {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// conform fills in the bypassed layers' metrics and checks that the
// report holds exactly the metrics of want, with their units.
func (r *report) conform(want []metricSpec) error {
	for _, m := range want {
		if _, ok := r.metrics[m.Name]; !ok && r.bypasses(m.Name) {
			r.set(m.Name, 0, m.Unit, 0)
		}
		if got, ok := r.metrics[m.Name]; !ok || got.Unit != m.Unit {
			return fmt.Errorf("reported %s as %+v, %s defines unit %q", m.Name, got, benchmarkFile, m.Unit)
		}
	}
	if len(r.metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, %s defines %d", len(r.metrics), benchmarkFile, len(want))
	}
	return nil
}

// write prints the human-readable table and, as the last line, the
// JSON result object. The error rate is printed in the table only: the
// JSON line carries it as attempted and failed, and a rate that is
// zero on every healthy run is no usable metric.
func (r *report) write(w io.Writer) error {
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d, error_rate %.4g\n", r.workload, r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	for _, n := range r.notes {
		fmt.Fprintf(w, "  gate failure: %s\n", n)
	}
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
