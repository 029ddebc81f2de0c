package main

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"sentry/internal/bench"
	"sentry/internal/wallclock"
)

// runner makes the fixed run a kind of the internal/wallclock guard table
// was recorded on. The parameters are the records' own: changing one means
// re-recording BENCH_wallclock.json.
type runner struct {
	kind string
	// recordOnly marks a run too slow to repeat on every guard; its record
	// is the yardstick another row holds a fresh run to.
	recordOnly bool
	run        func() (*wallclock.Run, error)
}

// scoreSeed is the seed of every recorded run.
const scoreSeed = 1

// runners covers every guard-table kind. The seed-replay baseline runs
// before the tree, whose ratio row reads the baseline's record.
var runners = []runner{
	{kind: "serial", run: func() (*wallclock.Run, error) { return suiteRun(1) }},
	{kind: "parallel", run: func() (*wallclock.Run, error) { return suiteRun(0) }},
	{kind: "check", run: checkRun},
	{kind: "explore-baseline", recordOnly: true, run: func() (*wallclock.Run, error) { return exploreRun(true) }},
	{kind: "explore", run: func() (*wallclock.Run, error) { return exploreRun(false) }},
	{kind: "scale", run: scaleRun},
}

// checkRunners fails unless the runners and the guard table name the same
// kinds.
func checkRunners() error {
	kinds := wallclock.Kinds()
	for _, k := range kinds {
		if !slices.ContainsFunc(runners, func(r runner) bool { return r.kind == k }) {
			return fmt.Errorf("guard-table kind %q has no runner", k)
		}
	}
	for _, r := range runners {
		if !slices.Contains(kinds, r.kind) {
			return fmt.Errorf("runner %q has no guard-table row", r.kind)
		}
	}
	return nil
}

// runScoreboard makes every run — all of them with record set, all but the
// record-only ones otherwise — writes each to path when recording, and then
// holds the fresh runs to the guard table against path, printing one line
// per row. A fresh record passes its own rows by construction, so what
// -record can fail is a ratio row: the tree must keep 10x the fresh
// baseline. Returns false if any row failed.
func runScoreboard(path string, record bool) bool {
	if err := checkRunners(); err != nil {
		fatalf("%v", err)
	}
	runs := map[string]*wallclock.Run{}
	for _, r := range runners {
		if r.recordOnly && !record {
			continue
		}
		run, err := r.run()
		if err != nil {
			fatalf("%s: %v", r.kind, err)
		}
		runs[r.kind] = run
		if record {
			if err := wallclock.Record(path, r.kind, scoreSeed, run); err != nil {
				fatalf("record: %v", err)
			}
			fmt.Printf("record: %s run %.2fs recorded to %s\n", r.kind, run.TotalSec, path)
		}
	}
	lines, ok := wallclock.Guard(path, runs)
	for _, line := range lines {
		fmt.Println("guard:", line)
	}
	return ok
}

// suiteRun times the evaluation suite: -exp all at -j parallel.
func suiteRun(parallel int) (*wallclock.Run, error) {
	run := &wallclock.Run{Parallelism: parallel, Experiments: map[string]float64{}}
	for _, res := range bench.RunAll(scoreSeed, parallel) {
		if res.Err != nil {
			return nil, fmt.Errorf("%s: %w", res.Exp.ID, res.Err)
		}
		run.Experiments[res.Exp.ID] = res.Wall.Seconds()
		run.TotalSec += res.Wall.Seconds()
	}
	return run, nil
}

// checkRun times the checker campaign: -check -seeds 256 on both
// platforms, faults none, -j 1.
func checkRun() (*wallclock.Run, error) {
	start := time.Now()
	if !runCheck("tegra3,nexus4", 256, 0, "none", scoreSeed, 1) {
		return nil, errors.New("check failed")
	}
	return &wallclock.Run{Parallelism: 1, TotalSec: time.Since(start).Seconds()}, nil
}

// exploreRun measures the explorer: -explore -j 0 -explore-corpus
// EXPLORE_corpus.txt at budget 100000, on the seed-replay engine with
// baseline set.
func exploreRun(baseline bool) (*wallclock.Run, error) {
	start := time.Now()
	res := runExplore("tegra3,nexus4", 100000, 0, 0, "none", scoreSeed, baseline, "EXPLORE_corpus.txt", "")
	if !res.ok {
		return nil, errors.New("explore failed")
	}
	return &wallclock.Run{
		Parallelism: 0,
		TotalSec:    time.Since(start).Seconds(),
		OpsPerSec:   res.rate(),
	}, nil
}

// scaleRun measures the parked footprint: -fleet-scale -devices 24 -ops 40
// -seed 1.
func scaleRun() (*wallclock.Run, error) {
	start := time.Now()
	perDevice, ok := runFleetScale(24, 40, scoreSeed)
	if !ok {
		return nil, errors.New("fleet scale failed")
	}
	return &wallclock.Run{Parallelism: 1, TotalSec: time.Since(start).Seconds(), BytesPerDevice: perDevice}, nil
}
