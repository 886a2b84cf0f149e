package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is one timed run of the program.
type sample struct {
	wall, cpu time.Duration
	ops       int
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	gcCPU     float64 // seconds of GC CPU, from runtime/metrics
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var gcCPUMetric = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func gcCPUSeconds() float64 {
	metrics.Read(gcCPUMetric)
	if gcCPUMetric[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return gcCPUMetric[0].Value.Float64()
}

// timedRun runs the program once after a full collection, so every run
// starts from the same heap.
func timedRun(w *workload, workers int) (outcome, sample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, c0 := gcCPUSeconds(), cpuTime()
	t0 := time.Now()
	o, err := w.run(workers)
	wall := time.Since(t0)
	c1, gc1 := cpuTime(), gcCPUSeconds()
	runtime.ReadMemStats(&m1)
	return o, sample{
		wall:     wall,
		cpu:      c1 - c0,
		ops:      o.ops,
		mallocs:  m1.Mallocs - m0.Mallocs,
		bytes:    m1.TotalAlloc - m0.TotalAlloc,
		gcCycles: m1.NumGC - m0.NumGC,
		gcCPU:    gc1 - gc0,
	}, err
}

// measurement is the untraced part of a benchmark run: a warm-up run whose
// outcome every later run must reproduce byte for byte, then timed runs.
type measurement struct {
	ref       outcome
	samples   []sample
	attempted int
	failures  []string
	steal     float64 // hypervisor steal share over the timed runs
}

// fail records a failed check on run n.
func (m *measurement) fail(n int, format string, args ...any) {
	m.failures = append(m.failures, fmt.Sprintf("run %d: %s", n, fmt.Sprintf(format, args...)))
}

// verify checks one run's outcome on its own and against the warm-up's.
func (m *measurement) verify(w *workload, n int, o outcome, err error) bool {
	m.attempted++
	if err == nil {
		err = w.check(o)
	}
	if err == nil && m.ref.digest != nil && !bytes.Equal(o.digest, m.ref.digest) {
		err = errors.New("result differs from the warm-up run's")
	}
	if err != nil {
		m.fail(n, "%v", err)
		return false
	}
	return true
}

// measure runs one untimed warm-up, then timed runs until d has elapsed
// (at least minRuns of them). Every run's sample is logged to log.
func measure(w *workload, d time.Duration, minRuns int, log io.Writer) *measurement {
	m := &measurement{}
	o, s, err := timedRun(w, workerCount)
	if !m.verify(w, 0, o, err) {
		return m
	}
	m.ref = o
	fmt.Fprintf(log, "warm-up: ops=%d outcome=%.4f wall_s=%.4f\n", o.ops, o.value(), s.wall.Seconds())

	steal0, total0 := readSteal()
	start := time.Now()
	for n := 1; n <= minRuns || time.Since(start) < d; n++ {
		o, s, err := timedRun(w, workerCount)
		if m.verify(w, n, o, err) {
			m.samples = append(m.samples, s)
		}
		fmt.Fprintf(log, "run %d: wall_s=%.4f cpu_s=%.4f ops=%d mallocs=%d bytes=%d gc_cycles=%d\n",
			n, s.wall.Seconds(), s.cpu.Seconds(), s.ops, s.mallocs, s.bytes, s.gcCycles)
	}
	steal1, total1 := readSteal()
	if total1 > total0 {
		m.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	return m
}

// readSteal returns the hypervisor steal and total jiffies from /proc/stat
// (zeros where it is unreadable).
func readSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9 and 10) are already counted in user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// coldEnv names the environment variable that turns the benchmark binary
// into a set-up probe: it builds the workload, runs it once cold, checks
// the outcome and exits. Its value is "<workload> <seed> <scale>".
const coldEnv = "GENEVA_BENCH_COLD"

// runCold is the set-up probe's body; it returns the process exit code.
func runCold(spec string) int {
	var name string
	var seed int64
	var scale int
	if _, err := fmt.Sscan(spec, &name, &seed, &scale); err != nil {
		fmt.Fprintf(os.Stderr, "%s=%q: %v\n", coldEnv, spec, err)
		return 2
	}
	runtime.GOMAXPROCS(workerCount)
	w, err := newWorkload(name, seed, scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	o, err := w.run(workerCount)
	if err == nil {
		err = w.check(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cold run: %v\n", err)
		return 1
	}
	return 0
}

// measureSetup starts the benchmark binary exe as a fresh set-up probe runs
// times and returns each probe's time from process start to the end of its
// cold run, in seconds.
func measureSetup(exe string, w *workload, runs int) ([]float64, error) {
	var out []float64
	for i := 0; i < runs; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s %d %d", coldEnv, w.name, w.seed, w.scale))
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return out, fmt.Errorf("set-up run %d: %w", i+1, err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile of vs,
// computed as Python's statistics.quantiles(vs, n=4) computes them.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

// perRun maps every sample through f.
func perRun(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}
