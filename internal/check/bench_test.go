package check

import (
	"testing"

	"sentry/internal/faults"
	"sentry/internal/snapshot"
)

var benchCfg = Config{Platform: "tegra3", Defences: AllDefences(), Faults: faults.None(), Steps: 40}

// BenchmarkColdBoot is the baseline the checkpoint/fork engine displaces:
// building a fresh post-boot world from scratch.
func BenchmarkColdBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NewWorld(benchCfg, 1)
	}
}

// BenchmarkCapture measures checkpointing a post-boot world — paid once per
// violating seed by Shrink, then amortised over every candidate replay.
func BenchmarkCapture(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w := NewWorld(benchCfg, 1)
		b.StartTimer()
		_ = snapshot.Capture(w)
	}
}

// BenchmarkSnapshotFork measures stamping out one world from a snapshot —
// the per-candidate cost during shrinking. O(touched metadata), so it must
// sit well under BenchmarkColdBoot.
func BenchmarkSnapshotFork(b *testing.B) {
	boot := snapshot.Capture(NewWorld(benchCfg, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = boot.Fork()
	}
}

// BenchmarkScanLive measures the live scan of a locked world whose DRAM no
// write has touched since its last clean scan. "marked" skips the DRAM
// reads; "full" re-reads every touched page, as the scan did before it
// kept a mark. Both run the masked clean.
func BenchmarkScanLive(b *testing.B) {
	w := NewWorld(benchCfg, 1)
	if v := w.Apply(Op{Code: OpLock}); v != nil {
		b.Fatal(v)
	}
	for _, bc := range []struct {
		name string
		mark *LiveMark
	}{{"marked", &w.live}, {"full", nil}} {
		b.Run(bc.name, func(b *testing.B) {
			sc := w.scanner()
			for i := 0; i < b.N; i++ {
				if v := sc.ScanLive(bc.mark); v != nil {
					b.Fatal(v)
				}
			}
		})
	}
}
