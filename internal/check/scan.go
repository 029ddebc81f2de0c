package check

import (
	"bytes"

	"sentry/internal/attack"
	"sentry/internal/kernel"
	"sentry/internal/mem"
	"sentry/internal/soc"
)

// Scanner is the reusable core of the confidentiality invariant: the scan
// clauses of World.scan and World.postMortem, factored out so other
// harnesses (the fleet chaos soak, future campaign drivers) can enforce the
// same clauses over platforms they own without building a check.World.
//
// The Scanner borrows the platform; it never mutates simulated memory
// except through the legal masked clean the writeback clause requires.
// Violations it returns carry Clause and Detail only — schedule context
// (Step, Op) is the caller's to fill in.
type Scanner struct {
	S *soc.SoC
	K *kernel.Kernel
	// Marker is the plaintext the protected workload planted; finding it
	// where an attacker could read it is a violation.
	Marker []byte
	// VolKey0 is the volatile root key as generated at boot. Ciphertext
	// sealed under it must stay safe even after deep-lock zeroizes the
	// live copy, so the post-mortem keyfinder compares against this.
	VolKey0 []byte
	// FuzzBudget is how many decayed bytes a remanence-image marker match
	// may tolerate and still count as recoverable plaintext.
	FuzzBudget int
}

// LiveMark remembers the DRAM write generation (mem.Store.Gen) at which
// ScanLive last found a platform clean. The zero LiveMark remembers nothing.
// A mark belongs to one platform and marker; a fork of the platform may
// carry a copy, because a forked store starts at its parent's generation.
type LiveMark struct {
	gen   uint64
	valid bool
}

// ScanLive enforces the live locked-state clauses — (dram) and (writeback).
// Call it only while the device is locked; the unlocked plaintext window is
// the exposure the paper's threat model accepts.
//
// With a mark, ScanLive checks only what changed: it skips the (dram) scan
// while DRAM's write generation still equals the mark, and the (writeback)
// scan when the masked clean wrote nothing to DRAM. Either skipped scan
// would re-read bytes already found clean, so the verdict is the full
// scan's. A clean verdict moves the mark to the current generation. A nil
// mark scans both clauses in full; it is the reference the marked scan is
// tested against.
func (sc *Scanner) ScanLive(mark *LiveMark) *Violation {
	dram := sc.S.DRAM.Store()
	full := mark == nil
	// (dram) the raw DRAM chips, exactly as a physical attacker would read
	// them this instant.
	if (full || !mark.valid || mark.gen != dram.Gen()) && attack.Contains(dram, sc.Marker) {
		return &Violation{Clause: "dram", Detail: "plaintext marker resident in DRAM chips"}
	}
	// (writeback) the projection one legal masked clean away: the hardware
	// may write back any dirty unlocked-way line at any moment, so clean
	// them (locked ways stay masked out) and rescan. The clean runs even
	// when nothing is rescanned: it moves dirty bits, bus traffic and
	// energy.
	before := dram.Gen()
	sc.S.L2.CleanWays(sc.K.FlushMask())
	if (full || dram.Gen() != before) && attack.Contains(dram, sc.Marker) {
		return &Violation{Clause: "writeback", Detail: "plaintext reaches DRAM on a legal masked write-back"}
	}
	if !full {
		*mark = LiveMark{gen: dram.Gen(), valid: true}
	}
	return nil
}

// nearMissSlack relaxes the remanence decay budget for near-miss detection:
// an image that fails the marker match only because decay chewed a few more
// bytes than FuzzBudget tolerates was one colder boot away from a violation.
const nearMissSlack = 8

// NearMiss scans the decayed image with the remanence clause's decay budget
// relaxed. It reports true when the marker is recoverable within the relaxed
// budget but (by construction of the caller) was not within the strict one —
// a schedule that ended adjacent to a violation. The explorer banks such
// prefixes into its corpus for future campaigns.
func (sc *Scanner) NearMiss() bool {
	relaxed := sc.nearMissBudget()
	return attack.FuzzyContains(sc.S.DRAM.Store(), sc.Marker, relaxed) ||
		attack.FuzzyContains(sc.S.IRAM.Store(), sc.Marker, relaxed)
}

// nearMissBudget is the relaxed decay budget, capped at half the marker:
// a window that keeps half the marker's bytes is still a damaged copy of
// it, and unrelated bytes essentially never do (decay's 0x00/0xFF ground
// states match none of the marker's). Uncapped, the budget reached the
// marker's length, every window of every image matched, and every leaf
// cut while locked counted as a near miss.
func (sc *Scanner) nearMissBudget() int {
	return min(sc.FuzzBudget*4+nearMissSlack, len(sc.Marker)/2)
}

// PostMortem enforces the after-power-loss clauses — (remanence) and (key) —
// over the decayed memory image. Call it after a power cut that happened
// while the device was locked.
func (sc *Scanner) PostMortem(why string) *Violation {
	// (remanence) recoverable plaintext, tolerant of per-byte decay.
	if attack.FuzzyContains(sc.S.DRAM.Store(), sc.Marker, sc.FuzzBudget) {
		return &Violation{Clause: "remanence", Detail: "plaintext marker recoverable from DRAM image after " + why}
	}
	if attack.FuzzyContains(sc.S.IRAM.Store(), sc.Marker, sc.FuzzBudget) {
		return &Violation{Clause: "remanence", Detail: "plaintext marker recoverable from iRAM image after " + why}
	}
	// (key) the volatile root key, via the Halderman-style keyfinder.
	for _, st := range []*mem.Store{sc.S.IRAM.Store(), sc.S.DRAM.Store()} {
		for _, key := range attack.FindAESKeys(st) {
			if bytes.Equal(key, sc.VolKey0) {
				return &Violation{Clause: "key", Detail: "volatile root key recoverable from memory image after " + why}
			}
		}
	}
	return nil
}
