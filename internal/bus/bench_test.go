package bus_test

import (
	"bytes"
	"testing"

	"sentry/internal/bus"
	"sentry/internal/cache"
	"sentry/internal/mem"
	"sentry/internal/sim"
)

// needleProbe is a monitor in the style of the checker's bus probe: it
// searches each payload during the call and keeps nothing.
type needleProbe struct {
	needle []byte
	hits   int
}

func (p *needleProbe) Observe(tx bus.Transaction) {
	if bytes.Contains(tx.Data, p.needle) {
		p.hits++
	}
}

// BenchmarkBusProbeTransfer streams dirty lines through a Tegra 3-shaped
// L2 (8 ways of 128 KB, 32-byte lines) with a probe attached: each op
// writes one byte into each line of the next 128 KB of a 2 MB ring, so
// every write misses, fills its line over the bus and writes back a dirty
// victim — 8,192 monitored transactions per op.
func BenchmarkBusProbeTransfer(b *testing.B) {
	const (
		dramBase = mem.PhysAddr(0x80000000)
		ring     = 2 << 20
		window   = 128 << 10
		line     = 32
	)
	clock := sim.NewClock(1e9)
	meter := &sim.Meter{}
	costs := &sim.CostTable{DRAMAccess: 10, L2Hit: 1}
	energy := &sim.EnergyTable{DRAMAccessPJ: 10, L2HitPJ: 1}
	dram := mem.NewDevice("dram", mem.TechDRAM, dramBase, ring)
	bs := bus.New(clock, meter, costs, energy, mem.NewMap(dram))
	l2 := cache.New(cache.Config{Ways: 8, WaySize: 128 << 10, LineSize: line}, clock, meter, costs, energy, bs)
	bs.Attach(&needleProbe{needle: []byte("plaintext marker")})
	one := []byte{0xA5}
	var off mem.PhysAddr
	sweep := func() {
		for end := off + window; off < end; off += line {
			l2.Write(dramBase+off%ring, one)
		}
	}
	for i := 0; i < 2*ring/window; i++ {
		sweep() // dirty every line, and write every DRAM page back once
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
}
