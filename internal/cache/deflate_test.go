package cache

import (
	"bytes"
	"fmt"
	"math/bits"
	"testing"
	"testing/quick"

	"sentry/internal/mem"
)

// cachesIdentical fails the test unless a and b agree in every
// architecturally visible piece of state (see diffCaches).
func cachesIdentical(t *testing.T, a, b *L2) {
	t.Helper()
	if d := diffCaches(a, b); d != "" {
		t.Fatal(d)
	}
}

// diffCaches compares per-position validity, flags, tags, contents, victim
// pointers, lockdown and stats, and describes the first difference ("" if
// none). A nil chunk reads as an empty one.
func diffCaches(a, b *L2) string {
	if a.stats != b.stats {
		return fmt.Sprintf("stats diverged: %+v vs %+v", a.stats, b.stats)
	}
	if a.allocMask != b.allocMask || a.master != b.master || a.indexKey != b.indexKey {
		return "registers diverged"
	}
	var none chunk
	for s := 0; s < a.sets; s++ {
		ka, kb, j := a.chunkOf(s), b.chunkOf(s), s%chunkSets
		if ka == nil {
			ka = &none
		}
		if kb == nil {
			kb = &none
		}
		if ka.valid[j] != kb.valid[j] {
			return fmt.Sprintf("set %d valid mask %#x vs %#x", s, ka.valid[j], kb.valid[j])
		}
		if ka.dirty[j] != kb.dirty[j] {
			return fmt.Sprintf("set %d dirty mask %#x vs %#x", s, ka.dirty[j], kb.dirty[j])
		}
		if ka.victim[j] != kb.victim[j] {
			return fmt.Sprintf("set %d victim %d vs %d", s, ka.victim[j], kb.victim[j])
		}
		for vm := ka.valid[j]; vm != 0; vm &= vm - 1 {
			w := bits.TrailingZeros32(vm)
			i := a.slot(s, w)
			if ka.tags[i] != kb.tags[i] || ka.holder[i] != kb.holder[i] {
				return fmt.Sprintf("set %d way %d tag/holder diverged: %#x/%#x vs %#x/%#x",
					s, w, ka.tags[i], ka.holder[i], kb.tags[i], kb.holder[i])
			}
			if !bytes.Equal(a.lineData(ka, i), b.lineData(kb, i)) {
				return fmt.Sprintf("set %d way %d contents diverged", s, w)
			}
		}
	}
	for w := 0; w < a.cfg.Ways; w++ {
		if a.validCount[w] != b.validCount[w] {
			return fmt.Sprintf("way %d validCount %d vs %d", w, a.validCount[w], b.validCount[w])
		}
	}
	return ""
}

// driveTraffic applies a deterministic mixed workload derived from ops.
func driveTraffic(c *L2, ops []uint16) {
	buf := make([]byte, 48)
	for i, op := range ops {
		addr := dramBase + mem.PhysAddr(op)*13
		switch op % 7 {
		case 0, 1, 2:
			c.Write(addr, buf[:1+op%32])
		case 3, 4:
			c.Read(addr, buf[:1+op%48])
		case 5:
			c.CleanRange(addr, 64)
		default:
			if i%3 == 0 {
				c.InvalidateRange(addr, 64)
			} else {
				c.CleanWays(1 << (op % 4))
			}
		}
	}
}

// TestDeflateInflateRoundTrip drives random traffic on a fork of a frozen
// base, deflates it, and demands the inflated reconstruction be identical —
// in state and in subsequent behaviour — to a plain clone taken before the
// deflate.
func TestDeflateInflateRoundTrip(t *testing.T) {
	f := func(warm, ops []uint16) bool {
		base, _, _, _ := testRig(smallCfg)
		driveTraffic(base, warm)
		base.FreezeShared()

		clock := base.clock
		child := base.Clone(clock, base.meter, base.bus)
		driveTraffic(child, ops)

		// Reference: an ordinary clone of the diverged child.
		want := child.Clone(clock, base.meter, base.bus)
		if n := child.Deflate(base); n < 0 {
			t.Fatal("negative footprint")
		}
		got := child.Clone(clock, base.meter, base.bus)
		cachesIdentical(t, want, got)

		// The reconstruction must also behave identically going forward and
		// stay isolated from the base.
		baseBefore := base.stats
		driveTraffic(want, ops[:len(ops)/2])
		driveTraffic(got, ops[:len(ops)/2])
		cachesIdentical(t, want, got)
		if base.stats != baseBefore {
			t.Fatal("traffic on the reconstruction mutated the frozen base")
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDeflateShrinksFootprint pins the point of the exercise: a deflated
// cache must cost a small fraction of its dense encoding.
func TestDeflateShrinksFootprint(t *testing.T) {
	base, _, _, _ := testRig(Tegra3Config)
	for i := 0; i < 64; i++ {
		base.Write(dramBase+mem.PhysAddr(i*4096), []byte("boot"))
	}
	base.FreezeShared()
	child := base.Clone(base.clock, base.meter, base.bus)
	for i := 0; i < 16; i++ {
		child.Write(dramBase+mem.PhysAddr(i*64), []byte("diverged"))
	}
	dense := child.FootprintBytes()
	delta := child.Deflate(base)
	if delta*20 > dense {
		t.Fatalf("deflate kept %d of %d dense bytes — expected >20x reduction", delta, dense)
	}
	// Repeated hydration from the same delta must keep working.
	a := child.Clone(base.clock, base.meter, base.bus)
	b := child.Clone(base.clock, base.meter, base.bus)
	cachesIdentical(t, a, b)
}
