package check

import "sentry/internal/snapshot"

// maxShrinkReplays bounds the replay budget one shrink may spend. Schedules
// are at most a few hundred ops and each replay is cheap, so the bound is
// generous; it exists so a pathological flip-flopping candidate set cannot
// hang a campaign.
const maxShrinkReplays = 4096

// ReplayFrom executes ops against an already-built world and reports the
// first violation. It is Replay's execution loop without the boot; the
// explorer drives forked worlds through it when re-deriving evicted tree
// nodes and replaying corpus prefixes.
func ReplayFrom(w *World, ops Schedule) *Violation {
	return replayFrom(w, ops)
}

// replayFrom executes ops against an already-built world and reports the
// first violation. It is Replay's execution loop without the boot.
func replayFrom(w *World, ops Schedule) *Violation {
	for _, op := range ops {
		if w.Dead() {
			break
		}
		if v := w.Apply(op); v != nil {
			return v
		}
	}
	return nil
}

// Shrink reduces a violating schedule to a minimal reproducer by greedy
// delta debugging: repeatedly try dropping contiguous chunks (halving the
// chunk size down to single ops) and keep any candidate that still
// violates. Every candidate is validated by a replay from the (cfg, seed)
// boot state — a fork of one captured post-boot world, which is
// byte-identical to a cold boot (snapshot_identity_test.go) and skips the
// boot cost. Within a sweep the surviving prefix cur[:start] is additionally
// kept advanced in a live checkpoint world, so each candidate forks the
// checkpoint and replays only its suffix.
//
// The violation need not stay literally identical while shrinking — dropping
// ops may surface the same leak under a different clause (e.g. "writeback"
// collapsing to "dram") — any violation counts, which is standard ddmin
// practice and keeps minima small.
//
// Returns the minimal schedule and its violation, or (sched, nil) if the
// input does not violate in the first place.
func Shrink(cfg Config, seed int64, sched Schedule) (Schedule, *Violation) {
	return ShrinkFrom(snapshot.Capture(NewWorld(cfg, seed)), cfg, seed, sched)
}

// ShrinkFrom is Shrink reusing an already-captured post-boot snapshot of
// NewWorld(cfg, seed) — the explorer hands its tree's root checkpoint in, so
// shrinking a violation found among millions of schedules never re-boots.
// A nil boot falls back to a cold boot per candidate, the reference the
// snapshot identity test holds the fork path to.
func ShrinkFrom(boot *snapshot.Snapshot[*World], cfg Config, seed int64, sched Schedule) (Schedule, *Violation) {
	replays := 0
	violates := func(s Schedule) *Violation {
		replays++
		if boot == nil {
			return Replay(cfg, seed, s).Violation
		}
		w := boot.Fork()
		v := replayFrom(w, s)
		w.Release()
		return v
	}
	v := violates(sched)
	if v == nil {
		return sched, nil
	}
	cur := sched
	for chunk := (len(cur) + 1) / 2; chunk >= 1; chunk /= 2 {
		// Sweep to fixpoint at this granularity: removing one chunk can make
		// an earlier chunk removable.
		for {
			removed := false
			// prefixW is the live checkpoint: the world state after applying
			// cur[:start]. Valid only while it tracks start exactly.
			var prefixW *World
			prefixLen := 0
			if boot != nil {
				prefixW = boot.Fork()
			}
			for start := 0; start+chunk <= len(cur); {
				if replays >= maxShrinkReplays {
					return cur, v
				}
				cand := make(Schedule, 0, len(cur)-chunk)
				cand = append(cand, cur[:start]...)
				cand = append(cand, cur[start+chunk:]...)
				var nv *Violation
				if prefixW != nil && prefixLen == start {
					// Checkpoint path: fork the advanced prefix and replay
					// only the candidate's suffix.
					replays++
					cw := prefixW.Fork()
					nv = replayFrom(cw, cur[start+chunk:])
					cw.Release()
				} else {
					nv = violates(cand)
				}
				if nv != nil {
					cur, v = cand, nv
					removed = true
					// Keep start in place: the next chunk slid into this slot,
					// and the checkpoint still holds exactly cur[:start].
				} else {
					// The chunk stays; advance the checkpoint through it — but
					// only when the sweep has another candidate to serve, or
					// the replayed ops are pure overhead. A violation or death
					// here cannot happen for a prefix of a schedule whose
					// violation fires at its end — but if it does, drop the
					// checkpoint and fall back to full replays.
					if prefixW != nil && prefixLen == start && start+2*chunk <= len(cur) {
						if replayFrom(prefixW, cur[start:start+chunk]) != nil || prefixW.Dead() {
							prefixW = nil
						} else {
							prefixLen = start + chunk
						}
					}
					start += chunk
				}
			}
			if !removed {
				break
			}
		}
	}
	return cur, v
}
