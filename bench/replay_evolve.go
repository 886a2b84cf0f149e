package main

import (
	"bytes"
	"encoding/json"
	"math/rand"

	"geneva/internal/apps"
	"geneva/internal/censor"
	"geneva/internal/core"
	"geneva/internal/eval"
	"geneva/internal/genetic"
	"geneva/internal/netsim"
	"geneva/internal/tcpstack"
)

// evolveReplay re-drives the training workload: genetic.Evolve scored by a
// sequential copy of eval.Evaluator.BatchFitness whose trials wire the
// same rig eval.NewRig builds and run the same attempt loop as eval.Run.
type evolveReplay struct {
	w     *workload
	t     *tracer
	cache map[string]float64
	stats replayStats
}

// replayEvolve replays the training workload, whose program outcome is
// ref, under tracer t (nil for the untraced replay).
func replayEvolve(w *workload, ref outcome, t *tracer) (replayStats, error) {
	e := &evolveReplay{w: w, t: t, cache: map[string]float64{}}
	e.stats.censored = make([]int, len(censorLabels))
	s := w.evol
	t.begin(kEvolve, -1)
	res := genetic.Evolve(genetic.Config{
		PopulationSize: s.population,
		Generations:    s.generations,
		TriggerValue:   "SA",
		ConvergeAfter:  -1,
		Rng:            e.newRand(w.seed, -1),
		BatchFitness:   e.batch,
	})
	t.end()
	st := eval.EvalStats{Hits: e.stats.hits, Misses: e.stats.misses, Dedups: e.stats.dedups, Entries: len(e.cache)}
	digest, err := json.Marshal(evolveOutcomeOf(res, st))
	if err != nil {
		return replayStats{}, err
	}
	e.stats.ops = e.stats.misses
	if !bytes.Equal(digest, ref.digest) {
		e.stats.delta++
	}
	rs := ref.evol.Stats
	e.stats.delta += absInt(st.Hits-rs.Hits) + absInt(st.Misses-rs.Misses) + absInt(st.Dedups-rs.Dedups)
	return e.stats, nil
}

func (e *evolveReplay) newRand(seed int64, conn int) *rand.Rand {
	e.t.begin(kRNG, conn)
	r := rand.New(rand.NewSource(seed))
	e.t.end()
	return r
}

// batch mirrors Evaluator.BatchFitness: collapse the batch to unique
// uncached canonical strategies, score those, and answer the rest from the
// cache.
func (e *evolveReplay) batch(batch []*core.Strategy) []float64 {
	e.t.begin(kBatch, -1)
	defer e.t.end()
	keys := make([]string, len(batch))
	resolved := make(map[string]float64, len(batch))
	pending := map[string]bool{}
	var todo []int
	for i, s := range batch {
		k := s.String()
		keys[i] = k
		if _, ok := resolved[k]; ok {
			e.stats.hits++
			continue
		}
		if f, ok := e.cache[k]; ok {
			resolved[k] = f
			e.stats.hits++
			continue
		}
		if pending[k] {
			e.stats.dedups++
			continue
		}
		pending[k] = true
		todo = append(todo, i)
		e.stats.misses++
	}
	for _, i := range todo {
		f := e.sample(batch[i])
		resolved[keys[i]] = f
		e.cache[keys[i]] = f
	}
	out := make([]float64, len(batch))
	for i, k := range keys {
		out[i] = resolved[k]
	}
	return out
}

// sample is one fitness computation: the success rate over the trial seed
// schedule eval.Rate uses.
func (e *evolveReplay) sample(s *core.Strategy) float64 {
	sp := e.w.evol
	sess := eval.SessionFor(sp.country, sp.protocol, true)
	tries := eval.TriesFor(sp.protocol)
	succ := 0
	for i := 0; i < sp.trials; i++ {
		if e.trial(s, sess, tries, e.w.seed+int64(i)*7919) {
			succ++
		}
	}
	return float64(succ) / float64(sp.trials)
}

// trial wires one rig and runs up to tries attempts, retrying only after a
// teardown.
func (e *evolveReplay) trial(s *core.Strategy, sess *apps.Session, tries int, seed int64) bool {
	t, sp := e.t, e.w.evol
	id := e.stats.trials
	e.stats.trials++
	var ids connIndex
	if t != nil && sampled(e.w.seed, id, spanSampleEvery) {
		ids = connIndex{}
		t.setSampling(true)
		defer t.setSampling(false)
	}
	t.begin(kTrial, id)
	defer t.end()

	t.begin(kCellSetup, id)
	client := tcpstack.NewEndpoint(eval.ClientAddr, tcpstack.DefaultClient, e.newRand(seed, id))
	server := tcpstack.NewEndpoint(eval.ServerAddr, tcpstack.DefaultServer, e.newRand(seed+1, id))
	server.NewServerApp = sess.ServerFactory()
	if t != nil {
		factory := server.NewServerApp
		server.NewServerApp = func(c *tcpstack.Conn) tcpstack.App { return appFor(t, ids, factory(c)) }
	}
	server.Listen(sess.Port)
	if s != nil {
		t.begin(kStrategy, id)
		eng := core.NewEngine(s, e.newRand(seed+2, id))
		t.end()
		server.Outbound = outboundFor(t, ids, eng.Outbound)
	}
	cen := eval.NewCensor(sp.country, censor.Default(), e.newRand(seed+3, id))
	var n *netsim.Network
	if cen != nil {
		n = netsim.New(hostFor(t, ids, client), server, boxFor(t, ids, sp.country, cen))
	} else {
		n = netsim.New(hostFor(t, ids, client), server)
	}
	n.RecyclePackets = true
	client.Attach(n)
	server.Attach(n)
	t.end()

	success := false
	for i := 0; i < tries; i++ {
		app := sess.NewClient()
		t.begin(kConnect, id)
		conn := client.Connect(eval.ServerAddr, sess.Port, appFor(t, ids, app))
		ids.note(conn, id)
		t.end()
		t.begin(kNetRun, id)
		e.stats.events += int64(n.Run(0))
		t.end()
		e.stats.attempts++
		if app.Succeeded() {
			success = true
			break
		}
		if !app.Reset() {
			break
		}
	}
	if cen != nil {
		e.stats.censored[censorKind(sp.country)-kCensor] += cen.CensoredCount()
	}
	if success {
		e.stats.succeeded++
	}
	return success
}
