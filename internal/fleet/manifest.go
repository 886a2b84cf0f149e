package fleet

import (
	"sort"
	"strconv"
	"strings"

	"geneva/internal/eval"
	"geneva/internal/obs"
)

// manifest assembles the run record. Worker width is deliberately omitted:
// it cannot affect the simulation, and its absence is what lets two runs at
// different widths produce byte-identical Results. Every other key is
// always present, whether or not its feature is on.
func manifest(wl Workload, cells int, ctl control) obs.Manifest {
	keys := make([]string, 0, len(wl.Shift.Params))
	for k := range wl.Shift.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var shift strings.Builder
	for i, k := range keys {
		if i > 0 {
			shift.WriteByte(',')
		}
		shift.WriteString(k)
		shift.WriteByte('=')
		shift.WriteString(strconv.FormatFloat(wl.Shift.Params[k], 'g', -1, 64))
	}
	cfg := map[string]string{
		"countries":            strings.Join(wl.Countries, ","),
		"protocols":            strings.Join(wl.Protocols, ","),
		"connections":          strconv.Itoa(wl.Connections),
		"clients_per_cell":     strconv.Itoa(wl.ClientsPerCell),
		"waves_per_cell":       strconv.Itoa(wl.WavesPerCell),
		"unprotected_per_cell": strconv.Itoa(wl.UnprotectedPerCell),
		"wave_gap":             wl.WaveGap.String(),
		"session_requests":     strconv.Itoa(wl.SessionRequests),
		"request_gap":          wl.RequestGap.String(),
		"reconnect_max":        strconv.Itoa(wl.Reconnect.MaxAttempts),
		"reconnect_backoff":    wl.Reconnect.Backoff.String(),
		"reconnect_retry_all":  strconv.FormatBool(wl.Reconnect.RetryAll),
		"cells":                strconv.Itoa(cells),
		"loss":                 strconv.FormatFloat(wl.Impairments.Loss, 'g', -1, 64),
		"duplicate":            strconv.FormatFloat(wl.Impairments.Duplicate, 'g', -1, 64),
		"reorder":              strconv.FormatFloat(wl.Impairments.Reorder, 'g', -1, 64),
		"jitter":               wl.Impairments.Jitter.String(),
		"portfolio":            ctl.portfolio.Hash(),
		"portfolio_size":       strconv.Itoa(ctl.portfolio.Len()),
		"selection_policy":     string(wl.Selection.Policy),
		"shift_wave":           strconv.Itoa(wl.Shift.AtWave),
		"shift_country":        wl.Shift.Country,
		"shift_params":         shift.String(),
	}
	return obs.NewManifest("fleet", cfg, obs.SeedSchedule{
		Base:      wl.Seed,
		TrialStep: cellSeedStride, // per cell, not per trial
		Streams: map[string]int64{
			"server":         seedServer,
			"router":         seedRouter,
			"censor":         seedCensor,
			"impairments":    seedImpairments,
			"selector":       seedSelector,
			"clients":        seedClients,      // client slot s at clients + s
			"portfolio_arms": eval.SeedArmBase, // arm a at portfolio_arms + a
		},
	})
}
