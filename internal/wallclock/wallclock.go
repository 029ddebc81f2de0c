// Package wallclock reads, updates, and guards BENCH_wallclock.json — the
// repo's recorded wall-clock trajectory. Records are keyed by run kind
// ("serial", "parallel", "check", "explore", "explore-baseline", "scale",
// "serve"); each tool records its own kind, and Guard holds a fresh run to
// the rows of one table of bounds, so a real regression fails loudly while
// normal host noise passes.
package wallclock

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// File is the schema of BENCH_wallclock.json.
type File struct {
	Seed    int64           `json:"seed"`
	Records map[string]*Run `json:"records"`
}

// Run is one recorded run. TotalSec is the wall clock; OpsPerSec is set by
// throughput kinds ("serve", "explore"); Experiments is the per-experiment
// breakdown of -exp all runs; BytesPerDevice is set by the memory kind
// ("scale") — the resting cost of a delta-parked device.
type Run struct {
	Parallelism    int                `json:"parallelism"`
	TotalSec       float64            `json:"total_seconds"`
	OpsPerSec      float64            `json:"ops_per_sec,omitempty"`
	Experiments    map[string]float64 `json:"experiments,omitempty"`
	BytesPerDevice int64              `json:"bytes_per_device,omitempty"`
}

// Headroom is how much worse than the checked-in record a run may be before
// a guard fails: wall clocks are noisy; 25% is regression, not noise.
const Headroom = 1.25

// bound is one row of the guard table: a fresh run of kind must keep metric
// (a Run JSON key) on the better side of a bound set by a checked-in record
// — kind's own, Headroom away in the worse direction, or with base set,
// ratio times base's.
type bound struct {
	kind, metric string
	higher       bool // higher is better
	base         string
	ratio        float64
}

// table holds every guard. The explorer's base row keeps the snapshot tree
// honest: a fresh sweep must stay >=10x the recorded seed-replay baseline,
// so the speedup claim cannot rot while the absolute floor still holds.
var table = []bound{
	{"serial", "total_seconds", false, "", 0},
	{"parallel", "total_seconds", false, "", 0},
	{"check", "total_seconds", false, "", 0},
	{"explore", "ops_per_sec", true, "", 0},
	{"explore", "ops_per_sec", true, "explore-baseline", 10},
	{"explore-baseline", "ops_per_sec", true, "", 0},
	{"scale", "bytes_per_device", false, "", 0},
	{"serve", "ops_per_sec", true, "", 0},
}

func (r *Run) metric(name string) float64 {
	switch name {
	case "total_seconds":
		return r.TotalSec
	case "ops_per_sec":
		return r.OpsPerSec
	case "bytes_per_device":
		return float64(r.BytesPerDevice)
	}
	panic("wallclock: unknown metric " + name)
}

// Record merges one run into the JSON record file, preserving the other
// kinds already recorded there (read-modify-write).
func Record(path, kind string, seed int64, run *Run) error {
	wc := File{Seed: seed, Records: map[string]*Run{}}
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &wc); err != nil || wc.Records == nil {
			wc = File{Seed: seed, Records: map[string]*Run{}}
		}
	}
	wc.Seed = seed
	wc.Records[kind] = run
	buf, err := json.MarshalIndent(wc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func load(path, kind string) (*Run, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var wc File
	if err := json.Unmarshal(buf, &wc); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	rec := wc.Records[kind]
	if rec == nil {
		return nil, fmt.Errorf("%s has no %q record", path, kind)
	}
	return rec, nil
}

// Guard holds run to every table row of its kind and fails (returns an
// error) on the first bound it breaks. On success it returns one summary
// per row, joined by "; ".
func Guard(path, kind string, run *Run) (string, error) {
	var msgs []string
	for _, b := range table {
		if b.kind != kind {
			continue
		}
		base, factor := kind, Headroom
		if b.base != "" {
			base, factor = b.base, b.ratio
		}
		rec, err := load(path, base)
		if err != nil {
			return "", err
		}
		want, got := rec.metric(b.metric), run.metric(b.metric)
		if want <= 0 {
			return "", fmt.Errorf("%s record in %s has no %s", base, path, b.metric)
		}
		limit := want * factor
		if b.higher && b.base == "" {
			limit = want / factor
		}
		ok, side := got <= limit, "ceiling"
		if b.higher {
			ok, side = got >= limit, "floor"
		}
		msg := fmt.Sprintf("%s %s %.6g, %s %.6g (recorded %s %.6g, factor %g)",
			kind, b.metric, got, side, limit, base, want, factor)
		if !ok {
			return "", fmt.Errorf("%s — regression", msg)
		}
		msgs = append(msgs, msg)
	}
	if msgs == nil {
		return "", fmt.Errorf("no guard for run kind %q", kind)
	}
	return strings.Join(msgs, "; "), nil
}
