package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"
)

// profileGroups are the buckets a CPU profile's flat time is split into:
// the program's packages, math/rand, map hashing and probing (where flow
// keys cost), the collector, the rest of the runtime, and other.
var profileGroups = []string{"netsim", "tcpstack", "core", "censor", "apps", "fleet", "selector",
	"eval", "genetic", "packet", "math_rand", "maps", "gc", "runtime", "other"}

// gcMarkers pick the runtime functions that belong to the collector.
var gcMarkers = []string{"gc", "scanobject", "greyobject", "markBits", "findObject", "wbBuf", "sweep",
	"scanblock", "scanstack", "markroot", "bulkBarrier", "typePointers", "heapBits"}

// profileGroup names the bucket of one profiled function.
func profileGroup(fn string) string {
	switch {
	case strings.HasPrefix(fn, "geneva/internal/"):
		pkg := strings.TrimPrefix(fn, "geneva/internal/")
		pkg = pkg[:strings.IndexAny(pkg+".", "./")]
		if slices.Contains(profileGroups, pkg) {
			return pkg
		}
	case strings.HasPrefix(fn, "math/rand."):
		return "math_rand"
	case fn == "aeshashbody" || fn == "memeqbody" || strings.HasPrefix(fn, "internal/runtime/maps.") ||
		strings.HasPrefix(fn, "internal/abi.(*SwissMapType)"):
		return "maps"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/"):
		for _, m := range gcMarkers {
			if strings.Contains(fn, m) {
				return "gc"
			}
		}
		return "runtime"
	}
	return "other"
}

// parsePprofTop turns `go tool pprof -top` output into flat shares per
// profile group.
func parsePprofTop(out []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	header := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", sc.Text(), err)
		}
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		shares[profileGroup(fn)] += pct / 100
	}
	if !header {
		return nil, fmt.Errorf("pprof -top printed no table")
	}
	return shares, nil
}

// profileSpan is how long the profile pass keeps running the program: at
// the profiler's 100 Hz per thread, a few seconds give enough samples.
const profileSpan = 3 * time.Second

// profilePass records a CPU profile of repeated runs under outDir and adds
// the profile.<group>_frac shares to ms.
func profilePass(w *workload, m *measurement, outDir string, ms *metricSet) error {
	path := filepath.Join(outDir, "profile", fmt.Sprintf("%s-seed%d.pprof", w.name, w.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	runtime.GC()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("profile: %w", err)
	}
	for start := time.Now(); time.Since(start) < profileSpan; {
		o, err := w.run(workerCount)
		if !m.verify(w, -1, o, err) {
			break
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", path).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	shares, err := parsePprofTop(out)
	if err != nil {
		return err
	}
	for _, g := range profileGroups {
		ms.add("profile."+g+"_frac", "frac", shares[g])
	}
	return nil
}
