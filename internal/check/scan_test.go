package check

import (
	"bytes"
	"testing"

	"sentry/internal/faults"
	"sentry/internal/mem"
	"sentry/internal/sim"
	"sentry/internal/soc"
)

// TestLiveScanSkipMatchesFullScan: a world whose live scan skips DRAM that
// no write has touched since its last clean scan must reach, after every
// Apply, the verdict of a twin that scans in full every time. Schedules
// cover both platforms, the benign fault profile (so bit-flip ops and
// dropped maintenance fire), forks of both twins mid-schedule, and the
// lock-flush-off and zero-on-free-off controls, whose violations make the
// (dram) and (writeback) clauses actually fire.
func TestLiveScanSkipMatchesFullScan(t *testing.T) {
	benign, _ := faults.ByName("benign")
	noFlush, noZero, neither := AllDefences(), AllDefences(), AllDefences()
	noFlush.LockFlush = false
	noZero.ZeroOnFree = false
	neither.LockFlush, neither.ZeroOnFree = false, false
	skipped := 0
	clauses := map[string]int{}
	ops := map[OpCode]int{}
	for _, platform := range []string{"tegra3", "nexus4"} {
		for _, def := range []Defences{AllDefences(), noFlush, noZero, neither} {
			cfg := Config{Platform: platform, Defences: def, Faults: benign, Steps: 60}
			for seed := int64(1); seed <= 24; seed++ {
				sched := GenerateFor(cfg, sim.NewRNG(seed), cfg.Steps)
				forks := sim.NewRNG(seed + 1000)
				marked, full := NewWorld(cfg, seed), NewWorld(cfg, seed)
				for i, op := range sched {
					if forks.Intn(6) == 0 {
						marked, full = marked.Fork(), full.Fork()
					}
					full.live = LiveMark{} // the twin never trusts a mark
					dram := marked.S.DRAM.Store()
					before, mark := dram.Gen(), marked.live
					vm, vf := marked.Apply(op), full.Apply(op)
					if violationString(vm) != violationString(vf) {
						t.Fatalf("%s %+v seed %d step %d (%s): marked scan %q, full scan %q",
							platform, def, seed, i, op, violationString(vm), violationString(vf))
					}
					if vf != nil {
						clauses[vf.Clause]++
					}
					if mark.valid && mark.gen == before && dram.Gen() == before && !marked.Dead() {
						skipped++ // nothing written since a clean scan: this scan skipped
					}
					ops[op.Code]++
				}
				if d := DiffWorlds(marked, full); d != "" {
					t.Fatalf("%s %+v seed %d: marked and full-scan worlds diverged: %s", platform, def, seed, d)
				}
			}
		}
	}
	for _, code := range []OpCode{OpDMAScrape, OpBitFlip, OpFreePage, OpFlushMasked} {
		if ops[code] == 0 {
			t.Errorf("no schedule applied %s", code)
		}
	}
	for _, clause := range []string{"dram", "writeback"} {
		if clauses[clause] == 0 {
			t.Errorf("the (%s) clause never fired; the test cannot tell a missed violation", clause)
		}
	}
	if skipped == 0 {
		t.Error("no live scan was skipped; the test exercises nothing")
	}
	t.Logf("%d skipped scans; violations by clause %v", skipped, clauses)
}

// TestNearMissNeedsADamagedCopy: unrelated bytes are never a near miss,
// while a marker copy with FuzzBudget+1 up to the relaxed budget's worth of
// damaged bytes, straddling a page boundary, is one (and is no remanence
// violation).
func TestNearMissNeedsADamagedCopy(t *testing.T) {
	marker := []byte("INVARIANT-MARKER-XYZZY")
	scanner := func() *Scanner {
		return &Scanner{S: soc.Tegra3(1), Marker: marker, FuzzBudget: fuzzBudget}
	}
	const at = soc.DRAMBase + 0x100000
	sc := scanner()
	if relaxed := sc.nearMissBudget(); relaxed <= fuzzBudget || relaxed > len(marker)/2 {
		t.Fatalf("relaxed budget %d: want above the strict %d and at most half the %d-byte marker",
			relaxed, fuzzBudget, len(marker))
	}
	for _, b := range []byte{0xAA, 0x00, 0xFF} {
		sc.S.DRAM.Write(at, bytes.Repeat([]byte{b}, mem.PageSize))
		if sc.NearMiss() {
			t.Fatalf("a page of %#x counts as a near miss", b)
		}
	}
	for damaged := fuzzBudget + 1; damaged <= sc.nearMissBudget()+1; damaged++ {
		sc := scanner()
		copyOf := append([]byte(nil), marker...)
		for i := 0; i < damaged; i++ {
			copyOf[i*len(copyOf)/damaged] ^= 0x80
		}
		sc.S.DRAM.Write(at-7, copyOf)
		if v := sc.PostMortem("test"); v != nil {
			t.Fatalf("%d damaged bytes: strict clause fired: %s", damaged, v.Detail)
		}
		if got, want := sc.NearMiss(), damaged <= sc.nearMissBudget(); got != want {
			t.Fatalf("%d damaged bytes: near miss %v, want %v", damaged, got, want)
		}
	}
}
