package cache

import (
	"testing"

	"sentry/internal/mem"
)

// warmDirty fills the cache with dirty lines across several chunks, plus
// one set whose every way holds a dirty line (so a further miss there
// evicts). The traffic runs as master 0.
func warmDirty(c *L2) {
	way := mem.PhysAddr(c.cfg.WaySize)
	for i := 0; i < 24; i++ {
		c.Write(dramBase+mem.PhysAddr(i*200), []byte{byte(i), 0xAA})
	}
	for w := 0; w < c.cfg.Ways; w++ {
		c.Write(dramBase+3*way+mem.PhysAddr(w)*way+64, []byte{0xC0 | byte(w)})
	}
}

// TestCloneNeverWritesThrough applies exactly one operation — one row per
// L2 mutation path — to one side of a clone of a warm, dirty cache, and
// demands the other side still equal a reference cache that saw only the
// warm traffic. Both directions run: the operation on the clone must not
// reach the parent, and the operation on the parent must not reach the
// clone.
func TestCloneNeverWritesThrough(t *testing.T) {
	autoLock := smallCfg
	autoLock.AutoLock = true
	conflict := dramBase + 3*mem.PhysAddr(smallCfg.WaySize) + mem.PhysAddr(smallCfg.Ways)*mem.PhysAddr(smallCfg.WaySize) + 64
	rows := []struct {
		name string
		cfg  Config
		op   func(t *testing.T, c *L2)
	}{
		{"write-hit", smallCfg, func(t *testing.T, c *L2) { c.Write(dramBase+200, []byte{0xFF}) }},
		{"write-miss-evict", smallCfg, func(t *testing.T, c *L2) {
			if hit, _, _ := c.Probe(conflict); hit {
				t.Fatal("conflict address already resident")
			}
			c.Write(conflict, []byte{0xEE})
		}},
		{"autolock-read-hit-other-master", autoLock, func(t *testing.T, c *L2) {
			c.SetMaster(1)
			var b [1]byte
			c.Read(dramBase+400, b[:])
			c.SetMaster(0)
		}},
		{"clean-range", smallCfg, func(t *testing.T, c *L2) { c.CleanRange(dramBase, 24*200) }},
		{"invalidate-range", smallCfg, func(t *testing.T, c *L2) { c.InvalidateRange(dramBase, 24*200) }},
		{"clean-ways", smallCfg, func(t *testing.T, c *L2) { c.CleanWays(c.AllWaysMask()) }},
		{"invalidate-ways", smallCfg, func(t *testing.T, c *L2) { c.InvalidateWays(0b0101) }},
		{"reset", smallCfg, func(t *testing.T, c *L2) { c.Reset() }},
	}
	for _, row := range rows {
		for _, side := range []string{"clone", "parent"} {
			t.Run(row.name+"/on-"+side, func(t *testing.T) {
				ref, _, _, _ := testRig(row.cfg)
				warmDirty(ref)
				parent, _, _, _ := testRig(row.cfg)
				warmDirty(parent)
				// The clone gets its own bus and DRAM, so write-backs on
				// either side cannot meet in memory.
				rig, _, _, _ := testRig(row.cfg)
				clone := parent.Clone(rig.clock, rig.meter, rig.bus)

				acted, other := clone, parent
				if side == "parent" {
					acted, other = parent, clone
				}
				row.op(t, acted)
				if diffCaches(acted, ref) == "" {
					t.Fatal("the operation changed nothing; the row exercises no mutation")
				}
				if d := diffCaches(other, ref); d != "" {
					t.Fatalf("the %s's operation reached the other side: %s", side, d)
				}
			})
		}
	}
}
