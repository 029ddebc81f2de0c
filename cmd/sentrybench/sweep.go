package main

import (
	"fmt"
	"strings"

	"sentry/internal/check"
	"sentry/internal/faults"
)

// sweepRow is one cell of an adversary sweep: the check.Config fields the
// suite sets (the driver fills in platform, defences, faults and steps) and
// the verdict the campaign must reach, per platform ("" = clean).
type sweepRow struct {
	cfg        check.Config
	wantClause map[string]string
}

// sweep is one adversary suite: its rows, the suite-specific columns of a
// cell's label, and its two verdict words — breach for a violation on a
// defended cell, expected for the violation an undefended cell must show.
type sweep struct {
	name             string
	rows             []sweepRow
	label            func(check.Config) string
	breach, expected string
}

// attackSweep is the per-profile leak matrix -attacks sweeps: the insecure
// placement must lose to both timing attacks everywhere, every defended
// placement must win on the same seeds, and the occupancy probe must expose
// way-locking itself on platforms that lock ways (tegra3) while staying
// silent where sessions live in iRAM (nexus4).
func attackSweep() sweep {
	row := func(cache, attacks, tegra3, nexus4 string) sweepRow {
		return sweepRow{check.Config{Cache: cache, Attacks: attacks},
			map[string]string{"tegra3": tegra3, "nexus4": nexus4}}
	}
	both := "prime-probe,evict-reload"
	return sweep{
		name: "attacks",
		rows: []sweepRow{
			row(check.CacheInsecure, both, "cache-timing", "cache-timing"),
			row(check.CacheBaseline, both, "", ""),
			row(check.CacheAutoLock, both, "", ""),
			row(check.CacheRandomized, both, "", ""),
			row(check.CacheBaseline, check.AttackOccupancy, "occupancy", ""),
			// The occupancy mitigation: session locks served from a constant
			// way budget reserved at boot never move the observable lock state.
			row(check.CacheReserved, check.AttackOccupancy, "", ""),
		},
		label: func(c check.Config) string {
			return fmt.Sprintf("cache=%-10s vs %-25s", c.Cache, c.Attacks)
		},
		breach: "LEAKED", expected: "leaks",
	}
}

// dfaSweep is the fault-attack verdict matrix -dfa sweeps: the undefended
// DRAM-placed victim must lose its full AES-128 key to differential fault
// analysis on both platforms, while the paper's iRAM placement (arena out of
// the glitch rig's reach) and both fault-detecting countermeasures
// (recompute-and-compare, truncated integrity tag) must win on the exact
// same seeds.
func dfaSweep() sweep {
	row := func(placement, counter, want string) sweepRow {
		return sweepRow{check.Config{DFA: placement, Counter: counter},
			map[string]string{"tegra3": want, "nexus4": want}}
	}
	return sweep{
		name: "dfa",
		rows: []sweepRow{
			row(check.DFAInDRAM, "none", "dfa-key-recovery"),
			row(check.DFAInIRAM, "none", ""),
			row(check.DFAInDRAM, "redundant", ""),
			row(check.DFAInDRAM, "tag", ""),
		},
		label: func(c check.Config) string {
			return fmt.Sprintf("dfa=%-5s counter=%-10s", c.DFA, c.Counter)
		},
		breach: "KEY RECOVERED", expected: "key recovered",
	}
}

// runSweep runs an adversary suite: a seeded campaign per (platform, row)
// cell with the same seed window everywhere, so defended cells demonstrably
// survive the exact schedules the undefended cells lose to. Output carries
// no wall times — the Makefile runs the sweep twice and diffs the bytes as a
// determinism check. Returns false if any cell misses its expected verdict
// or a repro fails to replay to the same clause.
func runSweep(s sweep, platforms string, seeds, steps int, startSeed int64, workers int) bool {
	okAll := true
	for _, plat := range strings.Split(platforms, ",") {
		for _, row := range s.rows {
			want, relevant := row.wantClause[plat]
			if !relevant {
				continue
			}
			cfg := row.cfg
			cfg.Platform, cfg.Defences, cfg.Faults, cfg.Steps = plat, check.AllDefences(), faults.None(), steps
			res := check.CampaignParallel(cfg, startSeed, seeds, workers)
			cell := fmt.Sprintf("%s: %-7s %s %d seeds:", s.name, plat, s.label(cfg), seeds)
			switch {
			case len(res.IntegrityFailures) > 0:
				okAll = false
				fmt.Printf("%s INTEGRITY FAILURES (%d)\n", cell, len(res.IntegrityFailures))
			case want == "" && res.Repro == nil:
				fmt.Printf("%s defended (clean)\n", cell)
			case want == "" && res.Repro != nil:
				okAll = false
				fmt.Printf("%s %s (%d/%d seeds)\n  %s\n  repro: %s\n",
					cell, s.breach, res.ViolationSeeds, seeds, res.Repro.Violation, res.Repro)
			case res.Repro == nil:
				okAll = false
				fmt.Printf("%s BLIND — attacker recovered nothing (want clause %s)\n", cell, want)
			case res.Repro.Violation.Clause != want:
				okAll = false
				fmt.Printf("%s WRONG CLAUSE %s (want %s)\n  %s\n",
					cell, res.Repro.Violation.Clause, want, res.Repro)
			default:
				status := fmt.Sprintf("%s as expected (%d/%d seeds, clause %s, %d -> %d ops)",
					s.expected, res.ViolationSeeds, seeds, want, res.Repro.OriginalLen, len(res.Repro.Ops))
				// The printed reproducer must replay to the same clause.
				if rr := check.Replay(res.Repro.Config, res.Repro.Seed, res.Repro.Ops); rr.Violation == nil ||
					rr.Violation.Clause != want {
					okAll = false
					status = "REPRO DOES NOT REPLAY"
				}
				fmt.Printf("%s %s\n  repro: %s\n", cell, status, res.Repro)
			}
		}
	}
	return okAll
}
