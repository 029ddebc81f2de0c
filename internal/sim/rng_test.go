package sim

import (
	"bytes"
	"math/rand"
	"testing"
)

// drain runs a mixed operation sequence against an RNG-like surface and
// returns a byte transcript of everything produced. Read sizes are chosen
// to exercise the 7-byte carry (mid-word snapshot positions included).
type drawer interface {
	Float64() float64
	Intn(n int) int
	Uint32() uint32
	Uint64() uint64
	Read(p []byte) (int, error)
	Perm(n int) []int
}

func transcript(t *testing.T, g drawer, rounds int) []byte {
	t.Helper()
	var out bytes.Buffer
	buf := make([]byte, 64)
	for i := 0; i < rounds; i++ {
		out.WriteByte(byte(g.Intn(251)))
		u := g.Uint64()
		for s := 0; s < 64; s += 8 {
			out.WriteByte(byte(u >> s))
		}
		f := g.Float64()
		out.WriteByte(byte(int(f * 256)))
		n := 1 + (i*13)%29 // odd sizes straddle the 7-byte read carry
		if _, err := g.Read(buf[:n]); err != nil {
			t.Fatalf("Read: %v", err)
		}
		out.Write(buf[:n])
		u32 := g.Uint32()
		out.WriteByte(byte(u32))
		for _, p := range g.Perm(5) {
			out.WriteByte(byte(p))
		}
	}
	return out.Bytes()
}

// TestRNGMatchesMathRand pins the RNG's streams to math/rand's: the counting
// source and the reimplemented Read must not change a single byte relative
// to rand.New(rand.NewSource(seed)), or every recorded experiment value in
// EXPERIMENTS.md would shift.
func TestRNGMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1 << 40} {
		got := transcript(t, NewRNG(seed), 200)
		want := transcript(t, rand.New(rand.NewSource(seed)), 200)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: sim.RNG diverges from math/rand", seed)
		}
	}
}

// TestRNGStateRestore interrupts a stream at awkward positions (including
// mid-Read carries), restores from the captured state, and checks the
// restored RNG continues byte-for-byte like the original.
func TestRNGStateRestore(t *testing.T) {
	g := NewRNG(99)
	buf := make([]byte, 11)
	for i := 0; i < 50; i++ {
		g.Uint64()
		g.Read(buf) // 11 bytes: leaves a partial word carried
		g.Float64()

		st := g.State()
		r := RestoreRNG(st)
		a := transcript(t, g, 20)
		b := transcript(t, r, 20)
		if !bytes.Equal(a, b) {
			t.Fatalf("iteration %d: restored RNG diverges", i)
		}
		// g has now advanced past the transcript; resync the original from
		// the restored copy's state for the next round.
		if g.State() != r.State() {
			t.Fatalf("iteration %d: states diverge after identical draws: %+v vs %+v",
				i, g.State(), r.State())
		}
	}
}

// TestFibSourceMatchesMathRand pins the reimplemented generator directly to
// rand.NewSource at the raw step level, across seed normalisation edges
// (zero, negative, over int32 range). The extracted rngCooked table and the
// recurrence must reproduce the stdlib bit-for-bit — this is the contract
// scripts/extract_rng_cooked.sh relies on.
func TestFibSourceMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 89482311, int32Max, int32Max + 1, -(1 << 40), 1<<62 + 3} {
		var f fibSource
		f.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 2000; i++ {
			if got, want := f.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d step %d: fibSource %#x, math/rand %#x", seed, i, got, want)
			}
		}
		if got, want := f.Int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d: Int63 %#x, math/rand %#x", seed, got, want)
		}
	}
	// Float64 reimplements rand.Rand.Float64 over the source: the same
	// bits for a million draws per seed.
	for _, seed := range []int64{0, 1, -1, 42, 1 << 40} {
		g, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 1_000_000; i++ {
			if got, want := g.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, got, want)
			}
		}
	}
	// A step within 2^9 of 2^63 rounds up to 1.0, and both resample: put
	// 2^63-1 next in a seeded generator and compare the draw that follows.
	g := NewRNG(9)
	for i := 0; i < lazyDraws; i++ {
		g.Uint64()
	}
	f := &g.src.src
	tap, feed := (f.tap+fibLen-1)%fibLen, (f.feed+fibLen-1)%fibLen
	f.vec[feed] = fibMask - f.vec[tap]
	ref := g.Clone()
	if got, want := g.Float64(), rand.New(&ref.src).Float64(); got != want || got == 1 {
		t.Fatalf("after a step that rounds to 1: Float64 %v, math/rand %v", got, want)
	}
	if g.State() != ref.State() || g.State().Steps != lazyDraws+2 {
		t.Fatalf("resample left the stream at step %d, math/rand at %d, want %d",
			g.State().Steps, ref.State().Steps, lazyDraws+2)
	}
}

// TestReseedMatchesNewRNG: an RNG reseeded from any stream position,
// inside the lazy-seeding phase or after it and with a Read carry pending,
// is indistinguishable from NewRNG(seed) — in every draw method, in its
// State, and in its Clone and RestoreRNG copies.
func TestReseedMatchesNewRNG(t *testing.T) {
	buf := make([]byte, 5)
	for _, seed := range []int64{0, 7, -3, 1 << 50} {
		for _, pos := range []int{0, 1, lazyDraws - 1, lazyDraws, lazyDraws + 1, 700} {
			g := NewRNG(seed ^ 0x5eed)
			for i := 0; i < pos; i++ {
				g.Uint64()
			}
			g.Read(buf) // leave a carry for Reseed to drop
			g.Reseed(seed)
			fresh := NewRNG(seed)
			if g.State() != fresh.State() {
				t.Fatalf("seed %d, reseeded at draw %d: state %+v, NewRNG %+v", seed, pos, g.State(), fresh.State())
			}
			c, r := g.Clone(), RestoreRNG(g.State())
			want := transcript(t, fresh, 40)
			for name, h := range map[string]*RNG{"reseeded": g, "clone": c, "restored": r} {
				if got := transcript(t, h, 40); !bytes.Equal(got, want) {
					t.Fatalf("seed %d, reseeded at draw %d: %s diverges from NewRNG", seed, pos, name)
				}
			}
			if g.State() != fresh.State() {
				t.Fatalf("seed %d, reseeded at draw %d: states diverge after identical draws", seed, pos)
			}
		}
	}
}

// TestRNGCloneContinuesAndDiverges: a clone taken mid-stream (including a
// mid-Read carry) produces the same continuation as the original, and the
// two advance independently afterwards — the struct-copy Clone shares no
// state with its parent.
func TestRNGCloneContinuesAndDiverges(t *testing.T) {
	g := NewRNG(123)
	buf := make([]byte, 5)
	for i := 0; i < 1000; i++ {
		g.Uint64()
	}
	g.Read(buf) // leave a partial word carried into the clone

	c := g.Clone()
	a := transcript(t, g, 30)
	b := transcript(t, c, 30)
	if !bytes.Equal(a, b) {
		t.Fatal("clone diverges from original continuation")
	}
	// Advance only the original; the clone must not move with it.
	before := c.State()
	g.Uint64()
	if c.State() != before {
		t.Fatal("advancing the original moved the clone")
	}
	if g.State() == c.State() {
		t.Fatal("original failed to advance past its clone")
	}
}

// TestLazySeedCloneAndRestore takes a Clone and a State/RestoreRNG at
// stream positions inside the lazy-seeding phase, at its last draw and
// after it, and checks that the original, the clone and the restored RNG
// all continue exactly like math/rand from that position.
func TestLazySeedCloneAndRestore(t *testing.T) {
	for _, seed := range []int64{0, 5, -77, 1 << 45} {
		for _, pos := range []int{0, 1, 2, lazyDraws / 2, lazyDraws - 1, lazyDraws, lazyDraws + 1, fibTap, fibTap + 1, 700} {
			g := NewRNG(seed)
			ref := rand.NewSource(seed).(rand.Source64)
			for i := 0; i < pos; i++ {
				if got, want := g.Uint64(), ref.Uint64(); got != want {
					t.Fatalf("seed %d draw %d: %#x, math/rand %#x", seed, i, got, want)
				}
			}
			c, r := g.Clone(), RestoreRNG(g.State())
			for i := 0; i < 2*lazyDraws; i++ {
				want := ref.Uint64()
				for name, h := range map[string]*RNG{"original": g, "clone": c, "restored": r} {
					if got := h.Uint64(); got != want {
						t.Fatalf("seed %d, taken at draw %d: %s draw %d = %#x, math/rand %#x",
							seed, pos, name, pos+i, got, want)
					}
				}
			}
		}
	}
}

// drawSink keeps BenchmarkNewRNG's draws live.
var drawSink uint64

// BenchmarkNewRNG seeds an RNG and draws 12 values: the size of the
// explorer's per-node child draw.
func BenchmarkNewRNG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := NewRNG(int64(i))
		for j := 0; j < 12; j++ {
			drawSink += g.Uint64()
		}
	}
}

// BenchmarkReseed is BenchmarkNewRNG on one reseeded RNG, as each explorer
// worker draws its nodes' children.
func BenchmarkReseed(b *testing.B) {
	g := NewRNG(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Reseed(int64(i))
		for j := 0; j < 12; j++ {
			drawSink += g.Uint64()
		}
	}
}
