package obs

import (
	"encoding/json"
	"os"
	"runtime"
)

// ManifestSchema names the manifest's JSON shape; bump on breaking changes
// so diff tooling can refuse to compare across schemas.
const ManifestSchema = "geneva-run-manifest/v1"

// SeedSchedule documents how every random stream in a run derives from the
// base seed, so a manifest alone is enough to reproduce the run. The
// derivation rules are fixed by the harness (eval.SeedSchedule builds this
// record from them); the manifest records them next to the base value
// rather than asking the reader to find them in source.
type SeedSchedule struct {
	// Base is the user-supplied seed every stream derives from.
	Base int64 `json:"base"`
	// TrialStep: trial i runs at seed Base + i*TrialStep.
	TrialStep int64 `json:"trial_step"`
	// Streams maps each per-trial rng stream to its offset from the trial
	// seed (client ISN/ports, server, engine, censor, impairments).
	Streams map[string]int64 `json:"streams"`
}

// Manifest is the diffable record of one instrumented run: what was asked
// (config, seed schedule) and what the simulation mechanically did (every
// counter). It deliberately carries no timestamps or wall-clock durations —
// two runs of the same config on the same build must be byte-identical, so
// any diff localizes a behaviour change. It complements the benchmark
// module (bench/): that records how fast a run went and on what host, this
// records what it did.
type Manifest struct {
	Schema  string            `json:"schema"`
	Go      string            `json:"go"`
	Command string            `json:"command"`
	Config  map[string]string `json:"config"`
	Seeds   SeedSchedule      `json:"seeds"`
	Metrics Snapshot          `json:"metrics"`
}

// NewManifest assembles a manifest from the current registry state.
func NewManifest(command string, config map[string]string, seeds SeedSchedule) Manifest {
	return Manifest{
		Schema:  ManifestSchema,
		Go:      runtime.Version(),
		Command: command,
		Config:  config,
		Seeds:   seeds,
		Metrics: Take(),
	}
}

// JSON renders the manifest as indented JSON (map keys sort, so the output
// is stable and diffable). Marshalling a Manifest cannot fail: every field
// is a plain string/int map.
func (m Manifest) JSON() []byte {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil { // unreachable: no field can fail to marshal
		panic(err)
	}
	return append(b, '\n')
}

// WriteFile writes the manifest as indented JSON.
func (m Manifest) WriteFile(path string) error {
	return os.WriteFile(path, m.JSON(), 0o644)
}
