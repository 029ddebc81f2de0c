package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"sentry/internal/check"
	"sentry/internal/check/explore"
	"sentry/internal/faults"
	"sentry/internal/sim"
)

// The explorer workload runs explore.Run, one worker per CPU, over a pinned
// list of trees on both platforms with the defended adversary alphabet: all
// three cache attackers, a DFA victim in iRAM, and on each platform the
// cache profile that defeats the occupancy probe there (reserved ways on
// tegra3, the paper's placement on nexus4). explore.Run stops short of its
// budget by a seed-dependent amount, so the workload is the tree list plus
// the budget, and a schedule count that differs from its pin is a changed
// workload, which fails the run.

const (
	exploreBudget = 30000
	warmBudget    = 2000 // the untimed warm-up tree per platform, outside the pinned list
)

var (
	explorePlatforms = []string{"tegra3", "nexus4"}
	exploreCache     = map[string]string{"tegra3": check.CacheReserved, "nexus4": check.CacheBaseline}
	exploreSeeds     = []int64{1, 2, 3, 4}
)

func exploreConfig(platform string) check.Config {
	return check.Config{
		Platform: platform,
		Defences: check.AllDefences(),
		Faults:   faults.None(),
		Cache:    exploreCache[platform],
		Attacks:  strings.Join([]string{check.AttackPrimeProbe, check.AttackEvictReload, check.AttackOccupancy}, ","),
		DFA:      check.DFAInIRAM,
	}
}

// tree is one pinned explorer input and its expected outcome.
type tree struct {
	Platform  string `json:"platform"`
	Seed      int64  `json:"seed"`
	Schedules uint64 `json:"schedules"`
	Coverage  string `json:"coverage"` // explore.Result.CoverageHash in hex
}

func (t tree) run(workers int) *explore.Result {
	return explore.Run(explore.Config{Check: exploreConfig(t.Platform), Seed: t.Seed, Budget: exploreBudget, Workers: workers})
}

func (t tree) String() string { return fmt.Sprintf("%s/%d", t.Platform, t.Seed) }

// exploreTrees returns the pinned tree list, after checking it is the one
// this code defines.
func exploreTrees() []tree {
	p := loadPins()
	i := 0
	for _, plat := range explorePlatforms {
		for _, seed := range exploreSeeds {
			if p.ExploreBudget != exploreBudget || i >= len(p.Explore) ||
				p.Explore[i].Platform != plat || p.Explore[i].Seed != seed {
				fatalf("pins.json does not match the explorer workload; rerun perfbench -pin")
			}
			i++
		}
	}
	return p.Explore
}

func exploreWorkload(r *run) error {
	trees := exploreTrees()
	if err := r.watchHost(); err != nil {
		return err
	}
	err := r.setup(fmt.Sprintf("boot each platform's root world and warm up with a %d-node tree", warmBudget),
		runtime.GC, func() error {
			for _, plat := range explorePlatforms {
				explore.Run(explore.Config{Check: exploreConfig(plat), Seed: -1, Budget: warmBudget, Workers: runtime.NumCPU()})
			}
			return nil
		})
	if err != nil {
		return err
	}

	// The seed orders the pinned trees; the pins stay checkable.
	rng := sim.NewRNG(r.seed)
	for i := len(trees) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		trees[i], trees[j] = trees[j], trees[i]
	}
	if r.tr != nil {
		u := exploreAll(r, trees, nil)
		t := exploreAll(r, trees, r.tr)
		r.set("trace.overhead_frac", t.elapsed.Seconds()/u.elapsed.Seconds()-1)
		setExploreRatios(r, t.results)
		return layerProbes(r, serveShapes["serve-session"])
	}
	// Each pass is divided by the host's slowdown over its own trees, so
	// that a pass the host slowed is not the one p99 reports.
	var (
		passMs, rawMs []float64
		schedules     uint64
		elapsed, raw  time.Duration
	)
	for start, last := time.Now(), time.Duration(0); r.morePasses(start, len(passMs), last); {
		t0, from := time.Now(), r.host.samples()
		p := exploreAll(r, trees, nil)
		last = time.Since(t0)
		s := r.host.slowdownSince(from)
		fmt.Printf("explore pass %d: %.1f ms raw, slowdown %.4f\n", len(passMs)+1, ms(p.elapsed), s)
		rawMs = append(rawMs, ms(p.elapsed))
		passMs = append(passMs, ms(p.elapsed)/s)
		schedules += p.schedules
		raw += p.elapsed
		elapsed += time.Duration(float64(p.elapsed) / s)
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return err
	}
	rate := float64(schedules) / elapsed.Seconds()
	fmt.Printf("sched_per_s %.1f sched/s raw (%d schedules, %d passes over %d trees, in %.2f s of explore.Run)\n",
		float64(schedules)/raw.Seconds(), schedules, len(passMs), len(trees), raw.Seconds())
	fmt.Printf("p50_ms/p99_ms: wall time of one pass over the tree list, n=%d passes; raw %.6g/%.6g ms\n",
		len(passMs), median(rawMs), quantile(rawMs, 0.99))
	r.host.report()
	r.set("p50_ms", median(passMs))
	r.set("p99_ms", quantile(passMs, 0.99))
	r.set("throughput_per_s", rate)
	r.set("peak_rss_mb", rss)
	return nil
}

type explorePass struct {
	results   []*explore.Result
	schedules uint64
	elapsed   time.Duration
}

// exploreAll explores the tree list once, checking every tree against its
// pin: no violation, and the schedule count and coverage hash it was pinned
// with. A tree disturbed by steal is explored again.
func exploreAll(r *run, trees []tree, tr *tracer) explorePass {
	var p explorePass
	for _, t := range trees {
		var res *explore.Result
		r.host.sample()
		r.quietly("explore "+t.String(), 3, func() {
			sp := tr.open("explore.tree", 0, 0)
			res = t.run(runtime.NumCPU())
			tr.close(sp)
			r.attempted += int(res.Schedules)
		})
		cov := fmt.Sprintf("%016x", res.CoverageHash)
		fmt.Printf("explore %-9s %6d schedules, %d violations, coverage %s, %.0f sched/s\n",
			t, res.Schedules, res.Violations, cov, float64(res.Schedules)/res.Elapsed.Seconds())
		if res.Violations > 0 {
			r.fail("explore %s: %d violations, first: %s", t, res.Violations, res.Repro)
		}
		if res.Schedules != t.Schedules || cov != t.Coverage {
			r.fail("explore %s: %d schedules, coverage %s; pinned %d, %s", t, res.Schedules, cov, t.Schedules, t.Coverage)
		}
		r.failed += res.Violations
		p.results = append(p.results, res)
		p.schedules += res.Schedules
		p.elapsed += res.Elapsed
	}
	return p
}

// setExploreRatios reports the explorer's own counters as ratios.
func setExploreRatios(r *run, rs []*explore.Result) {
	var sched, ops, hits, handoffs, replayed, prunes float64
	peak := 0
	for _, x := range rs {
		sched += float64(x.Schedules)
		ops += float64(x.OpsExecuted)
		hits += float64(x.SnapshotHits)
		handoffs += float64(x.HandOffs)
		replayed += float64(x.ReplayedOps)
		prunes += float64(x.PORPrunes)
		peak = max(peak, x.PeakResident)
	}
	r.set("explore.ops_per_sched", ops/sched)
	r.set("explore.handoff_frac", handoffs/hits)
	r.set("explore.replayed_ops_frac", replayed/ops)
	r.set("explore.por_prunes_per_sched", prunes/sched)
	r.set("explore.peak_resident", float64(peak))
}
