package fleet

import (
	"encoding/json"
	"testing"
)

// The chaos soak under the benign fault profile: power cuts and drain
// delays, retries, restarts — and still zero lost or duplicated operations,
// zero confidentiality violations, bounded retry amplification, and every
// quarantine traceable to an injected fault.
func TestSoakBenign(t *testing.T) {
	cfg := SoakConfig{Devices: 8, OpsPerDevice: 60, Seed: 42, Faults: "benign"}
	rep, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Errorf("confidentiality violations: %v", rep.Violations)
	}
	if len(rep.Problems) != 0 {
		t.Errorf("soak problems: %v", rep.Problems)
	}
	if got := rep.OpsOK + rep.OpsFailed; got != rep.OpsAttempted {
		t.Errorf("ops accounting: ok %d + failed %d != attempted %d",
			rep.OpsOK, rep.OpsFailed, rep.OpsAttempted)
	}
	if rep.Amplification > 4 {
		t.Errorf("amplification %.2f exceeds MaxAttempts", rep.Amplification)
	}
	if rep.Execs == 0 || rep.OpsOK == 0 {
		t.Errorf("suspiciously idle soak: execs=%d ok=%d", rep.Execs, rep.OpsOK)
	}
	// A quarter of the devices boot iRAM-squeezed (SqueezeEvery default 4):
	// the degraded-crypto path must actually have been exercised.
	if rep.CryptoDowngrades == 0 {
		t.Error("no crypto downgrades despite squeezed devices")
	}
}

// The same soak twice must produce byte-identical reports: every retry
// decision, fault, restart, and ledger entry is a pure function of the seed.
func TestSoakDeterministic(t *testing.T) {
	cfg := SoakConfig{Devices: 4, OpsPerDevice: 40, Seed: 7, Faults: "benign"}
	r1, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := json.MarshalIndent(r1, "", " ")
	j2, _ := json.MarshalIndent(r2, "", " ")
	if string(j1) != string(j2) {
		t.Fatalf("soak not deterministic for a fixed seed:\nrun1: %s\nrun2: %s", j1, j2)
	}
	// And a different seed produces a genuinely different run.
	r3, err := RunSoak(SoakConfig{Devices: 4, OpsPerDevice: 40, Seed: 8, Faults: "benign"})
	if err != nil {
		t.Fatal(err)
	}
	j3, _ := json.MarshalIndent(r3, "", " ")
	if string(j1) == string(j3) {
		t.Fatal("different seeds produced identical soak reports")
	}
}

// A capped soak, whose devices delta-park and hydrate mid-run, reports
// byte-identically to an uncapped one, whose devices never park: every
// counter, ledger digest, retry count and failure class. Parking is a
// memory decision, never a behavioral one. The rows are two geometries: a
// few devices behind a two-seat cap on two shards, and more devices across
// four shards.
func TestSoakEvictionIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  SoakConfig
		long bool // skipped in -short
	}{
		{"6dev-cap2", SoakConfig{Devices: 6, OpsPerDevice: 50, Seed: 9, Faults: "benign", Shards: 2, ResidentCap: 2}, false},
		{"16dev-cap6", SoakConfig{Devices: 16, OpsPerDevice: 30, Seed: 7, Faults: "benign", Shards: 4, ResidentCap: 6}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("soak comparison skipped in -short")
			}
			capped, err := RunSoak(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			uncapped := tc.cfg
			uncapped.ResidentCap = 0
			free, err := RunSoak(uncapped)
			if err != nil {
				t.Fatal(err)
			}
			if !capped.Passed() {
				t.Fatalf("capped soak failed: %v / %v", capped.Problems, capped.Violations)
			}
			cj, _ := json.MarshalIndent(capped, "", " ")
			fj, _ := json.MarshalIndent(free, "", " ")
			if string(cj) != string(fj) {
				t.Fatalf("capped vs never-parked reports diverged:\ncapped: %s\nfree:   %s", cj, fj)
			}
		})
	}
}

// With no faults injected there is nothing to restart or quarantine.
func TestSoakNoFaults(t *testing.T) {
	rep, err := RunSoak(SoakConfig{Devices: 2, OpsPerDevice: 30, Seed: 3, Faults: "none"})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("fault-free soak failed: problems=%v violations=%v", rep.Problems, rep.Violations)
	}
	if rep.Restarts != 0 || rep.Quarantines != 0 {
		t.Fatalf("restarts=%d quarantines=%d in a fault-free run", rep.Restarts, rep.Quarantines)
	}
}

func TestSoakUnknownProfile(t *testing.T) {
	if _, err := RunSoak(SoakConfig{Faults: "nope"}); err == nil {
		t.Fatal("unknown fault profile accepted")
	}
}

// The quarantine audit rejects causes that are not injected faults.
func TestAuditQuarantine(t *testing.T) {
	if p := auditQuarantine(0, 2, []string{"fault: power cut", "fault: power cut", "panic: x"}); len(p) != 0 {
		t.Fatalf("traceable quarantine flagged: %v", p)
	}
	if p := auditQuarantine(0, 2, []string{"fault: a", "boot failed (x): y", "fault: b"}); len(p) == 0 {
		t.Fatal("untraceable cause not flagged")
	}
	if p := auditQuarantine(0, 3, []string{"fault: a"}); len(p) == 0 {
		t.Fatal("quarantine under budget not flagged")
	}
}
