package main

import (
	"fmt"
	"strings"
	"time"

	"sentry/internal/check"
	"sentry/internal/check/explore"
	"sentry/internal/faults"
	"sentry/internal/wallclock"
)

// controlBudget and controlSeeds bound the positive-control search: each
// ablation must fall within controlSeeds sibling trees of controlBudget
// nodes. Fixed rather than derived from -explore-budget so the control
// verdict is the same no matter how large a sweep the user asked for.
const (
	controlBudget = 4000
	controlSeeds  = 4
)

// exploreResult carries what main needs for wallclock accounting: the
// overall verdict and the defended-sweep throughput (controls excluded —
// they stop at the first violating seed, so their rate says nothing).
type exploreResult struct {
	ok        bool
	schedules uint64
	elapsed   time.Duration
}

// runExplore drives the prefix-sharing schedule explorer the way runCheck
// drives the campaign: per platform, a defended sweep that must stay clean,
// then the three positive controls that must each be defeated and shrink to
// a replayable repro. With baseline set, only the defended sweeps run, on
// the seed-replay baseline engine — same schedule set and verdicts, cold
// boot per leaf — to measure what prefix sharing buys.
//
// Output discipline: every line deciding the verdict is deterministic in
// (flags, corpus file) and starts with "explore:"; wall-clock and snapshot
// economics go to "perf:" lines, which a -j1 vs -jN diff must ignore.
func runExplore(platforms string, budget, workers, steps int, faultsName string, startSeed int64, baseline bool, corpusIn, corpusOut string) exploreResult {
	prof, ok := faults.ByName(faultsName)
	if !ok {
		fatalf("unknown fault profile %q (want none, benign, or adversarial)", faultsName)
	}
	res := exploreResult{ok: true}
	mode := "explore"
	if baseline {
		mode = "explore-baseline"
	}
	var banked []string

	for _, plat := range strings.Split(platforms, ",") {
		ccfg := check.Config{Platform: plat, Defences: check.AllDefences(), Faults: prof, Steps: steps}
		cfg := explore.Config{Check: ccfg, Seed: startSeed, Budget: budget, Depth: steps, Workers: workers}
		if corpusIn != "" {
			prefixes, err := explore.LoadCorpus(corpusIn, ccfg, startSeed)
			if err != nil {
				fatalf("corpus %s: %v", corpusIn, err)
			}
			cfg.Corpus = prefixes
		}
		var r *explore.Result
		if baseline {
			r = explore.Baseline(cfg)
		} else {
			r = explore.Run(cfg)
		}
		res.schedules += r.Schedules
		res.elapsed += r.Elapsed
		banked = append(banked, r.Corpus...)

		fmt.Printf("%s: %-7s defended  faults=%-11s seed=%d budget=%d corpus=%d: ",
			mode, plat, prof.Name, startSeed, budget, len(cfg.Corpus))
		if r.Violations > 0 {
			res.ok = false
			fmt.Printf("VIOLATION (%d schedules)\n  %s\n  repro: %s\n", r.Violations, r.Repro.Violation, r.Repro)
		} else {
			fmt.Printf("clean — %d schedules (%d leaves, %d por-prunes, %d near-misses, max depth %d, coverage %016x)\n",
				r.Schedules, r.Leaves, r.PORPrunes, r.NearMisses, r.MaxDepth, r.CoverageHash)
		}
		perfLine(mode, plat, r)
	}

	if !baseline {
		for _, plat := range strings.Split(platforms, ",") {
			for _, ctl := range check.Controls() {
				if !runExploreControl(plat, ctl, workers, steps, &banked) {
					res.ok = false
				}
			}
		}
	}

	if corpusOut != "" {
		if err := mergeCorpus(corpusOut, banked); err != nil {
			fatalf("corpus %s: %v", corpusOut, err)
		}
		fmt.Printf("%s: corpus written to %s\n", mode, corpusOut)
	}
	return res
}

// runExploreControl proves the explorer is not vacuous against one
// single-defence ablation: a violation must surface within controlSeeds
// sibling trees, and its repro — shrunk through the tree's root checkpoint —
// must replay to a violation through the ordinary campaign path.
func runExploreControl(plat string, ctl check.Control, workers, steps int, banked *[]string) bool {
	ccfg := check.Config{Platform: plat, Defences: ctl.Defences, Faults: faults.None(), Steps: steps}
	var (
		r     *explore.Result
		tried int
	)
	for seed := int64(1); seed <= controlSeeds; seed++ {
		tried++
		r = explore.Run(explore.Config{Check: ccfg, Seed: seed, Budget: controlBudget, Depth: steps, Workers: workers})
		if r.Violations > 0 {
			break
		}
	}
	if r.Violations == 0 {
		fmt.Printf("explore: %-7s control %-16s NOT CAUGHT in %d seeds x %d schedules (blind to: %s)\n",
			plat, ctl.Name, controlSeeds, controlBudget, ctl.Description)
		return false
	}
	*banked = append(*banked, r.Corpus...)
	status := "caught"
	if rr := check.Replay(r.Repro.Config, r.Repro.Seed, r.Repro.Ops); rr.Violation == nil {
		status = "DOES NOT REPLAY"
	}
	fmt.Printf("explore: %-7s control %-16s %s after %d tree(s) (clause %s, %d -> %d ops)\n",
		plat, ctl.Name, status, tried, r.Repro.Violation.Clause, len(r.Sched), len(r.Repro.Ops))
	fmt.Printf("  repro: %s\n", r.Repro)
	perfLine("explore", plat+" control "+ctl.Name, r)
	return status == "caught"
}

// perfLine prints the non-deterministic half of a run: throughput and the
// snapshot economics. The "perf:" prefix is the contract the determinism
// smoke diff keys on.
func perfLine(mode, what string, r *explore.Result) {
	rate := float64(r.Schedules) / r.Elapsed.Seconds()
	fmt.Printf("perf: %s %s %.0f sched/s (%d ops, %d snapshot hits, %d handoffs, %d replays/%d ops, %d evictions, peak %d resident) in %v\n",
		mode, what, rate, r.OpsExecuted, r.SnapshotHits, r.HandOffs,
		r.Replays, r.ReplayedOps, r.Evictions, r.PeakResident, r.Elapsed.Round(time.Millisecond))
}

// mergeCorpus folds newly banked lines into an existing corpus file;
// SaveCorpus dedupes, sorts, and caps, so repeated runs converge to a
// stable file.
func mergeCorpus(path string, lines []string) error {
	existing, err := explore.ReadCorpusLines(path)
	if err != nil {
		return err
	}
	return explore.SaveCorpus(path, "sentrybench -explore", append(existing, lines...))
}

// exploreWallclock converts a finished explore run into the keyed wallclock
// record: throughput is schedules/sec over the defended sweeps only.
func exploreWallclock(res exploreResult, workers int, total time.Duration) *wallclock.Run {
	return &wallclock.Run{
		Parallelism: workers,
		TotalSec:    total.Seconds(),
		OpsPerSec:   float64(res.schedules) / res.elapsed.Seconds(),
	}
}
