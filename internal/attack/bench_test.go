package attack_test

import (
	"testing"

	"sentry/internal/attack"
	"sentry/internal/check"
	"sentry/internal/mem"
)

// decayedImage returns the DRAM and iRAM stores of a defended tegra3 world
// that was locked and then held in reset for the paper's 2 seconds: the
// image the explorer's post-mortem scans at a dead leaf.
func decayedImage(b *testing.B) []*mem.Store {
	w := check.NewWorld(check.Config{Platform: "tegra3", Defences: check.AllDefences()}, 1)
	for _, op := range []check.Op{{Code: check.OpLock}, {Code: check.OpHeldReset}} {
		if v := w.Apply(op); v != nil {
			b.Fatal(v)
		}
	}
	return []*mem.Store{w.S.DRAM.Store(), w.S.IRAM.Store()}
}

// keysSink keeps BenchmarkFindAESKeys's result live.
var keysSink [][]byte

// BenchmarkFindAESKeys is the post-mortem's (key) clause over one decayed
// image.
func BenchmarkFindAESKeys(b *testing.B) {
	img := decayedImage(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range img {
			keysSink = attack.FindAESKeys(st)
		}
	}
}

// BenchmarkFuzzyContains is the post-mortem's (remanence) clause over one
// decayed image, at the checker's decay budget of 4 bytes.
func BenchmarkFuzzyContains(b *testing.B) {
	img := decayedImage(b)
	marker := []byte("INVARIANT-MARKER-XYZZY")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range img {
			if attack.FuzzyContains(st, marker, 4) {
				b.Fatal("marker recoverable from the defended image")
			}
		}
	}
}
