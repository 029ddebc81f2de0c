package cache

import (
	"testing"

	"sentry/internal/mem"
)

// platformCfg mirrors the Tegra 3 L2 shape: 8-way, 1 MB, 32-byte lines.
var platformCfg = Config{Ways: 8, WaySize: 128 * 1024, LineSize: 32}

// BenchmarkFillSweep streams reads through a span larger than one way, so
// every access misses and allocates a line. Storage is allocated a chunk
// at a time, on the first fill into the chunk, not at cache construction.
func BenchmarkFillSweep(b *testing.B) {
	span := mem.PhysAddr(2 * platformCfg.WaySize)
	var buf [1]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, _, _, _ := testRig(platformCfg)
		for off := mem.PhysAddr(0); off < span; off += mem.PhysAddr(platformCfg.LineSize) {
			c.Read(dramBase+off, buf[:])
		}
	}
}

// BenchmarkNewCold measures bare cache construction: an empty chunk table,
// whatever the capacity.
func BenchmarkNewCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, _, _, _ := testRig(platformCfg)
		_ = c
	}
}

// BenchmarkCleanWaysSparse measures a masked clean of a nearly-empty cache:
// the per-way valid-line counters let CleanWays skip empty ways without
// walking their sets.
func BenchmarkCleanWaysSparse(b *testing.B) {
	c, _, _, _ := testRig(platformCfg)
	var buf [1]byte
	c.Read(dramBase, buf[:]) // one resident line
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.CleanWays(0xFF)
	}
}

// BenchmarkInflateSparse hydrates a ~100-line delta against an empty frozen
// base of the Tegra 3 geometry — the fleet's case: its shared boot world
// holds no valid line, and a churned device diverges in about a hundred.
func BenchmarkInflateSparse(b *testing.B) {
	base, _, _, _ := testRig(platformCfg)
	base.FreezeShared()
	parked := base.Clone(base.clock, base.meter, base.bus)
	for i := 0; i < 100; i++ {
		parked.Write(dramBase+mem.PhysAddr(i*4*platformCfg.LineSize), []byte{byte(i)})
	}
	parked.Deflate(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parked.Clone(base.clock, base.meter, base.bus)
	}
}

// BenchmarkCloneWarm clones a cache holding a few thousand valid lines and
// writes one line of the clone: the cost of a fork that diverges a little.
func BenchmarkCloneWarm(b *testing.B) {
	c, _, _, _ := testRig(platformCfg)
	var buf [1]byte
	for off := 0; off < 4096*platformCfg.LineSize; off += platformCfg.LineSize {
		c.Read(dramBase+mem.PhysAddr(off), buf[:])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := c.Clone(c.clock, c.meter, c.bus)
		n.Write(dramBase+mem.PhysAddr(i%4096*platformCfg.LineSize), buf[:])
	}
}
