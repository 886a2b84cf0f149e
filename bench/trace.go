package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"geneva/internal/eval"
)

// kind names one span boundary: the layer a call enters and the call. Self
// time and call counts are aggregated per kind.
type kind int

const (
	kFleetRun   kind = iota // fleet: the whole replayed deployment (root)
	kWave                   // fleet: one cell's wave loop, minus its children
	kLedger                 // fleet: ResidualCarrier export and seed
	kBarrier                // fleet: the wave barrier's ledger fold
	kFinish                 // fleet: cell teardown and result aggregation
	kCellSetup              // setup: wiring one cell or one trial rig
	kRNG                    // setup: seeding a math/rand source
	kStrategy               // setup: leasing a router or building engines
	kConnect                // tcpstack: a client's active open
	kClientRx               // tcpstack: a client endpoint's Receive
	kNetRun                 // netsim: Network.Run, minus its children
	kOutbound               // core: the server's Outbound hook
	kApp                    // apps: one script callback
	kSelNext                // selector: Cell.Next
	kSelObserve             // selector: Cell.Observe
	kSelMerge               // selector: State.Merge
	kEvolve                 // genetic: the whole replayed training run (root)
	kBatch                  // eval: one BatchFitness call, minus its children
	kTrial                  // eval: one fitness trial's attempt loop
	kCensor                 // censor: Middlebox.Process; one kind per registry country from here on
)

var kindNames = [kCensor]struct{ layer, name string }{
	kFleetRun:   {"fleet", "run"},
	kWave:       {"fleet", "wave"},
	kLedger:     {"fleet", "ledger"},
	kBarrier:    {"fleet", "barrier"},
	kFinish:     {"fleet", "finish"},
	kCellSetup:  {"setup", "cell"},
	kRNG:        {"setup", "rng"},
	kStrategy:   {"setup", "strategy"},
	kConnect:    {"tcpstack", "connect"},
	kClientRx:   {"tcpstack", "client_rx"},
	kNetRun:     {"netsim", "run"},
	kOutbound:   {"core", "outbound"},
	kApp:        {"apps", "callback"},
	kSelNext:    {"selector", "next"},
	kSelObserve: {"selector", "observe"},
	kSelMerge:   {"selector", "merge"},
	kEvolve:     {"genetic", "evolve"},
	kBatch:      {"eval", "batch"},
	kTrial:      {"eval", "trial"},
}

// censorLabels are the registry's metric labels in registry order; censor
// country i has span kind kCensor+i.
var censorLabels = func() []string {
	var out []string
	for _, d := range eval.Registry() {
		out = append(out, d.MetricLabel)
	}
	return out
}()

// censorKind returns the span kind of a country's censor.
func censorKind(country string) kind {
	for i, d := range eval.Registry() {
		if d.Country == country {
			return kCensor + kind(i)
		}
	}
	panic("bench: no censor registered for " + country)
}

func numKinds() int { return int(kCensor) + len(censorLabels) }

func (k kind) layerName() (string, string) {
	if k >= kCensor {
		return "censor", censorLabels[k-kCensor]
	}
	return kindNames[k].layer, kindNames[k].name
}

// span is one raw span of a sampled connection, as written to the JSON
// lines file.
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Conn   int    `json:"conn"`
}

type frame struct {
	k            kind
	start, child int64
	id, conn     int
}

// tracer records spans around the layer calls a replay makes. It is
// single-goroutine, like the replay. A nil *tracer records nothing, so the
// untraced replay runs the same code without clock reads.
//
// Every span's self time (its duration minus the time its child spans
// cover) is aggregated per kind in memory. Raw spans are kept only while
// sampling is on — the replay turns it on for a seeded sample of cells or
// trials — and written out by dump.
type tracer struct {
	epoch time.Time
	stack []frame
	self  []int64
	calls []int64
	// total is the summed duration of root spans.
	total int64
	// emitted counts packets the Outbound hook returned.
	emitted int64

	sampling bool
	spans    []span
	nextID   int
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		self:  make([]int64, numKinds()),
		calls: make([]int64, numKinds()),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span of kind k for connection conn (-1 when the span
// belongs to no single connection).
func (t *tracer) begin(k kind, conn int) {
	if t == nil {
		return
	}
	f := frame{k: k, conn: conn, start: t.now()}
	if t.sampling {
		t.nextID++
		f.id = t.nextID
	}
	t.stack = append(t.stack, f)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	end := t.now()
	top := len(t.stack) - 1
	f := t.stack[top]
	t.stack = t.stack[:top]
	dur := end - f.start
	t.self[f.k] += dur - f.child
	t.calls[f.k]++
	parent := 0
	if top > 0 {
		t.stack[top-1].child += dur
		parent = t.stack[top-1].id
	} else {
		t.total += dur
	}
	if f.id != 0 {
		layer, name := f.k.layerName()
		t.spans = append(t.spans, span{Layer: layer, Name: name, Start: f.start, End: end, ID: f.id, Parent: parent, Conn: f.conn})
	}
}

// setSampling turns raw-span recording on or off for the spans opened
// from now on.
func (t *tracer) setSampling(on bool) {
	if t != nil {
		t.sampling = on
	}
}

// sampled reports whether the raw spans of the unit (cell or trial) with
// the given index are kept: a seeded hash picks about one unit in every.
func sampled(seed int64, index, every int) bool {
	h := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(index)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return h%uint64(every) == 0
}

// selfNS returns the self time of kinds, summed, in nanoseconds.
func (t *tracer) selfNS(ks ...kind) float64 {
	var s int64
	for _, k := range ks {
		s += t.self[k]
	}
	return float64(s)
}

func (t *tracer) callCount(ks ...kind) float64 {
	var s int64
	for _, k := range ks {
		s += t.calls[k]
	}
	return float64(s)
}

// censorKinds lists every censor span kind.
func censorKinds() []kind {
	ks := make([]kind, len(censorLabels))
	for i := range ks {
		ks[i] = kCensor + kind(i)
	}
	return ks
}

// selfSum is the self time of every kind; it equals total when every span
// nests inside a root span.
func (t *tracer) selfSum() float64 {
	var s int64
	for _, v := range t.self {
		s += v
	}
	return float64(s)
}

// dump writes the sampled raw spans as JSON lines to path.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("span dump: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	return f.Close()
}
