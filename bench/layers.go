package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"geneva/internal/obs"
)

// replay re-drives w's input through the layer constructors.
func replay(w *workload, ref outcome, t *tracer) (replayStats, error) {
	if w.fleet != nil {
		return replayFleet(*w.fleet, ref.fleet, t)
	}
	return replayEvolve(w, ref, t)
}

// timedReplay runs one replay after a full collection and returns its wall
// and CPU time.
func timedReplay(w *workload, ref outcome, t *tracer) (replayStats, time.Duration, time.Duration, error) {
	runtime.GC()
	c0, t0 := cpuTime(), time.Now()
	rs, err := replay(w, ref, t)
	return rs, time.Since(t0), cpuTime() - c0, err
}

// countPass runs the program once with the obs counters on and returns
// them. The outcome, counters aside, must equal the counter-free run's.
func countPass(w *workload, ref outcome) (obs.Snapshot, error) {
	obs.Reset()
	obs.SetEnabled(true)
	o, err := w.run(workerCount)
	snap := obs.Take()
	obs.SetEnabled(false)
	obs.Reset()
	if err != nil {
		return snap, err
	}
	if w.fleet == nil {
		if !bytes.Equal(o.digest, ref.digest) {
			return snap, fmt.Errorf("count pass: result differs from the counter-free run's")
		}
		return snap, nil
	}
	strip := func(o outcome) []byte {
		r := o.fleet
		r.Manifest.Metrics = obs.Snapshot{}
		b, _ := json.Marshal(r) // re-marshalling a value that marshalled once
		return b
	}
	if !bytes.Equal(strip(o), strip(ref)) {
		return snap, fmt.Errorf("count pass: result differs from the counter-free run's")
	}
	return snap, nil
}

// traceLayers is the traced part of a run: an untraced and a traced
// replay, the obs count pass and a one-worker run, reduced to the
// per-layer metrics. Failed checks are recorded on m.
func traceLayers(w *workload, m *measurement, outDir string, log io.Writer) *metricSet {
	ms := &metricSet{}
	ref := m.ref

	plain, plainWall, plainCPU, err := timedReplay(w, ref, nil)
	if err != nil {
		m.fail(-1, "replay: %v", err)
		return ms
	}
	tr := newTracer()
	rs, tracedWall, _, err := timedReplay(w, ref, tr)
	if err != nil {
		m.fail(-1, "traced replay: %v", err)
		return ms
	}
	spans := filepath.Join(outDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, w.seed))
	if err := tr.dump(spans); err != nil {
		m.fail(-1, "%v", err)
	}
	fmt.Fprintf(log, "replay: wall_s=%.4f cpu_s=%.4f; traced wall_s=%.4f, %d sampled spans in %s\n",
		plainWall.Seconds(), plainCPU.Seconds(), tracedWall.Seconds(), len(tr.spans), spans)

	m.attempted++
	snap, err := countPass(w, ref)
	if err != nil {
		m.fail(-1, "%v", err)
	}
	c := snap.Counters
	delta := plain.delta + rs.delta
	if w.evol != nil {
		// The program's trial totals come from its counters.
		for _, s := range []replayStats{plain, rs} {
			delta += absInt(s.succeeded-int(c["eval.trials_succeeded"])) + absInt(s.trials-int(c["eval.trials"]))
		}
	}
	if delta != 0 {
		m.fail(-1, "replay diverged from the program (delta %d)", delta)
	}

	runtime.GOMAXPROCS(1)
	o1, s1, err := timedRun(w, 1)
	runtime.GOMAXPROCS(workerCount)
	m.verify(w, -1, o1, err)
	fmt.Fprintf(log, "one-worker run: wall_s=%.4f\n", s1.wall.Seconds())

	ops := float64(rs.ops)
	total := float64(tr.total)
	self := tr.selfNS
	calls := tr.callCount
	frac := func(ks ...kind) float64 { return ratio(self(ks...), total) }
	perOp := func(v float64) float64 { return ratio(v, ops) }
	count := func(name string) float64 { return float64(c[name]) }
	fleetOnly := func(v float64) float64 {
		if w.fleet == nil {
			return 0
		}
		return v
	}
	evolveOnly := func(v float64) float64 {
		if w.evol == nil {
			return 0
		}
		return v
	}

	ms.add("setup.cell_ns_per_op", "ns", perOp(self(kCellSetup)))
	ms.add("setup.rng_ns_per_op", "ns", perOp(self(kRNG)))
	ms.add("setup.strategy_ns_per_op", "ns", perOp(self(kStrategy)))

	ms.add("netsim.events_per_op", "count", perOp(float64(rs.events)))
	ms.add("netsim.self_ns_per_event", "ns", ratio(self(kNetRun), float64(rs.events)))
	ms.add("netsim.delivered_per_op", "count", perOp(count("netsim.delivered")))
	ms.add("netsim.injected_per_op", "count", perOp(count("netsim.injected_by_censor")))
	ms.add("netsim.dropped_per_op", "count", perOp(count("netsim.dropped_inpath")+count("netsim.expired_ttl")+
		count("netsim.no_route")+count("netsim.lost_impairment")))
	ms.add("netsim.timers_per_op", "count", perOp(count("netsim.timers_fired")))

	ms.add("tcpstack.connect_ns_per_op", "ns", perOp(self(kConnect)))
	ms.add("tcpstack.client_rx_self_ns_per_seg", "ns", ratio(self(kClientRx), calls(kClientRx)))
	ms.add("tcpstack.segments_sent_per_op", "count", perOp(count("tcpstack.segments_sent")))
	ms.add("tcpstack.reset_close_frac", "frac", ratio(count("tcpstack.close_reset"),
		count("tcpstack.close_reset")+count("tcpstack.close_clean")))

	ms.add("core.outbound_ns_per_pkt", "ns", ratio(self(kOutbound), calls(kOutbound)))
	ms.add("core.outbound_pkts_per_op", "count", perOp(calls(kOutbound)))
	ms.add("core.emitted_per_input", "count", ratio(float64(tr.emitted), calls(kOutbound)))

	ck := censorKinds()
	ms.add("censor.process_ns_per_pkt", "ns", ratio(self(ck...), calls(ck...)))
	for i, label := range censorLabels {
		k := ck[i]
		ms.add("censor."+label+".self_frac", "frac", frac(k))
		ms.add("censor."+label+".pkts_per_op", "count", perOp(calls(k)))
		ms.add("censor."+label+".censored_per_op", "count", perOp(float64(rs.censored[i])))
	}

	ms.add("apps.self_ns_per_op", "ns", perOp(self(kApp)))
	ms.add("apps.callbacks_per_op", "count", perOp(calls(kApp)))

	ms.add("selector.next_frac", "frac", frac(kSelNext))
	ms.add("selector.observe_frac", "frac", frac(kSelObserve))
	ms.add("selector.merge_frac", "frac", frac(kSelMerge))
	ms.add("selector.pulls_per_op", "count", perOp(calls(kSelNext)))
	ms.add("selector.fallbacks", "count", float64(ref.fleet.Fallbacks))

	ms.add("fleet.wave_frac", "frac", frac(kFleetRun, kWave, kFinish))
	ms.add("fleet.barrier_frac", "frac", frac(kBarrier, kLedger))
	ms.add("fleet.attempts_per_op", "count", fleetOnly(perOp(float64(rs.attempts))))
	ms.add("fleet.served_per_attempt", "frac", fleetOnly(ratio(float64(rs.served), float64(rs.attempts))))
	ms.add("fleet.ledger_seeded_per_op", "count", perOp(float64(rs.ledgerSeeded)))

	ms.add("eval.self_frac", "frac", frac(kBatch, kTrial))
	ms.add("eval.cache_hit_frac", "frac", evolveOnly(ref.evol.Stats.HitRate()))
	ms.add("eval.attempts_per_trial", "count", evolveOnly(ratio(float64(rs.attempts), float64(rs.trials))))
	ms.add("genetic.self_frac", "frac", frac(kEvolve))

	var cpu, wall, gcCPU, gcCycles []float64
	for _, s := range m.samples {
		cpu = append(cpu, s.cpu.Seconds())
		wall = append(wall, s.wall.Seconds())
		gcCPU = append(gcCPU, s.gcCPU)
		gcCycles = append(gcCycles, float64(s.gcCycles))
	}
	ms.add("runtime.gc_cpu_frac", "frac", ratio(sum(gcCPU), sum(cpu)))
	ms.add("runtime.gc_cycles_per_run", "count", median(gcCycles))
	ms.add("runtime.busy_cores", "cores", ratio(sum(cpu), sum(wall)))
	ms.add("runtime.speedup_w2_over_w1", "x", ratio(s1.wall.Seconds(), median(wall)))

	ms.add("trace.overhead_frac", "frac", ratio(tracedWall.Seconds()-plainWall.Seconds(), plainWall.Seconds()))
	ms.add("trace.replay_cpu_ratio", "x", ratio(plainCPU.Seconds(), median(cpu)))
	ms.add("trace.replay_served_delta", "count", float64(delta))
	ms.add("trace.self_coverage", "frac", ratio(tr.selfSum(), float64(tracedWall)))
	return ms
}

func sum(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}
