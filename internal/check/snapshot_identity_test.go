package check

import (
	"testing"

	"sentry/internal/faults"
)

// TestSnapshotOnOffIdentity holds the checkpoint/fork shrinker to its
// cold-boot reference: for every violating schedule among seeds 1–10 of
// the adversarial campaign and of the three positive controls, Shrink
// (candidates fork a captured post-boot world and a live prefix
// checkpoint) and ShrinkFrom(nil, …) (a cold boot per candidate) must
// return the same minimal schedule and the same violation. Snapshots may
// only change wall-clock, never results.
func TestSnapshotOnOffIdentity(t *testing.T) {
	adv, _ := faults.ByName("adversarial")
	cfgs := []Config{{Platform: "tegra3", Defences: AllDefences(), Faults: adv, Steps: 60}}
	for _, ctl := range Controls() {
		cfgs = append(cfgs, Config{Platform: "tegra3", Defences: ctl.Defences, Faults: faults.None(), Steps: 40})
	}
	shrunk := 0
	for _, cfg := range cfgs {
		for seed := int64(1); seed <= 10; seed++ {
			sched, rr := Run(cfg, seed)
			v := rr.Violation
			if v == nil {
				continue
			}
			if v.Step > 0 && v.Step <= len(sched) {
				sched = sched[:v.Step]
			}
			forked, fv := Shrink(cfg, seed, sched)
			cold, cv := ShrinkFrom(nil, cfg, seed, sched)
			if fv == nil || cv == nil {
				t.Fatalf("%s seed %d: shrink lost the violation (fork %v, cold %v)",
					defencesString(cfg.Defences), seed, fv, cv)
			}
			if forked.String() != cold.String() || fv.String() != cv.String() {
				t.Errorf("%s seed %d: fork and cold-boot shrinks differ:\n  fork: %s (%s)\n  cold: %s (%s)",
					defencesString(cfg.Defences), seed, forked, fv, cold, cv)
			}
			shrunk++
		}
	}
	if shrunk == 0 {
		t.Fatal("no violating schedule to shrink: the identity check is vacuous")
	}
	t.Logf("%d violating schedules shrunk identically", shrunk)
}
