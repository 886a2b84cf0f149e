package main

import (
	"fmt"
	"io"
)

// metric is one reported number, as it appears in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in the order they were added, for the report.
type metricSet struct {
	names []string
	vals  map[string]metric
}

func (ms *metricSet) add(name, unit string, v float64) {
	if ms.vals == nil {
		ms.vals = map[string]metric{}
	}
	ms.names = append(ms.names, name)
	ms.vals[name] = metric{Value: v, Unit: unit}
}

func (ms *metricSet) print(w io.Writer) {
	for _, n := range ms.names {
		m := ms.vals[n]
		fmt.Fprintf(w, "%-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the end-to-end metrics from the timed runs and the
// set-up probes. Each is a median over runs; the quartiles and the run
// count are logged beside it.
func endToEnd(m *measurement, setup []float64, log io.Writer) *metricSet {
	ms := &metricSet{}
	per := func(name, unit string, vs []float64) {
		q1, med, q3 := quartiles(vs)
		fmt.Fprintf(log, "%s: median %.6g q1 %.6g q3 %.6g n %d (%s)\n", name, med, q1, q3, len(vs), unit)
		ms.add(name, unit, med)
	}
	per("ops_per_s", "1/s", perRun(m.samples, func(s sample) float64 { return ratio(float64(s.ops), s.wall.Seconds()) }))
	per("cpu_us_per_op", "us", perRun(m.samples, func(s sample) float64 { return ratio(s.cpu.Seconds()*1e6, float64(s.ops)) }))
	per("allocs_per_op", "count", perRun(m.samples, func(s sample) float64 { return ratio(float64(s.mallocs), float64(s.ops)) }))
	per("bytes_per_op", "B", perRun(m.samples, func(s sample) float64 { return ratio(float64(s.bytes), float64(s.ops)) }))
	per("setup_s", "s", setup)
	return ms
}
