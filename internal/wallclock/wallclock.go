// Package wallclock reads, updates, and guards BENCH_wallclock.json — the
// repo's recorded wall-clock trajectory. Records are keyed by run kind
// ("serial", "parallel", "check", "explore", "explore-baseline", "scale");
// `sentrybench -record` writes them all, and Guard holds fresh runs to the
// rows of one table of bounds, so a real regression fails loudly while
// normal host noise passes.
package wallclock

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// File is the schema of BENCH_wallclock.json.
type File struct {
	Seed    int64           `json:"seed"`
	Records map[string]*Run `json:"records"`
}

// Run is one recorded run. TotalSec is the wall clock; OpsPerSec is set by
// the throughput kinds ("explore", "explore-baseline"); Experiments is the
// per-experiment breakdown of -exp all runs; BytesPerDevice is set by the
// memory kind ("scale") — the resting cost of a delta-parked device.
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
}

// Kinds lists the run kinds the table has rows for, in table order.
func Kinds() []string {
	var kinds []string
	for _, b := range table {
		if !slices.Contains(kinds, b.kind) {
			kinds = append(kinds, b.kind)
		}
	}
	return kinds
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

// Guard holds fresh runs, keyed by kind, to the table and returns one line
// per row, in table order. A row whose kind has no run is reported as not
// run; ok is false if any other row broke its bound or could not be
// checked, or if a run's kind has no row at all.
func Guard(path string, runs map[string]*Run) (lines []string, ok bool) {
	ok = true
	for _, b := range table {
		run := runs[b.kind]
		if run == nil {
			lines = append(lines, fmt.Sprintf("%s %s: not run", b.kind, b.metric))
			continue
		}
		msg, err := b.check(path, run)
		if err != nil {
			ok, msg = false, err.Error()
		}
		lines = append(lines, msg)
	}
	kinds := Kinds()
	for kind := range runs {
		if !slices.Contains(kinds, kind) {
			ok = false
			lines = append(lines, fmt.Sprintf("no guard for run kind %q", kind))
		}
	}
	return lines, ok
}

// check holds run to one row: nil error and a summary if it keeps the
// bound, an error naming the regression or the missing record otherwise.
func (b bound) check(path string, run *Run) (string, error) {
	base, factor := b.kind, Headroom
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
		b.kind, b.metric, got, side, limit, base, want, factor)
	if !ok {
		return "", fmt.Errorf("%s — regression", msg)
	}
	return msg, nil
}
