package remanence_test

import (
	"testing"

	"sentry/internal/check"
	"sentry/internal/remanence"
	"sentry/internal/snapshot"
)

// BenchmarkDecay decays the DRAM of a locked, defended tegra3 world, on a
// fresh fork each iteration as the explorer's post-mortem does: the 2 s
// held reset and the 50 ms power blip. Only the decay is timed; it
// includes MutatePages' copy-on-write copies of the fork's pages.
func BenchmarkDecay(b *testing.B) {
	w := check.NewWorld(check.Config{Platform: "tegra3", Defences: check.AllDefences()}, 1)
	if v := w.Apply(check.Op{Code: check.OpLock}); v != nil {
		b.Fatal(v)
	}
	snap := snapshot.Capture(w)
	for _, bc := range []struct {
		name    string
		seconds float64
	}{{"held-reset-2s", 2}, {"blip-50ms", 0.05}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f := snap.Fork()
				b.StartTimer()
				remanence.Decay(f.S.DRAM, f.S.RNG, bc.seconds, remanence.RoomTempC)
			}
		})
	}
}
