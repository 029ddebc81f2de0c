// Package sim provides the deterministic simulation core shared by every
// hardware model in this repository: a cycle-accurate virtual clock, the
// per-platform cost and energy tables, and a seeded random source.
//
// Everything that "takes time" in the simulated SoC — a DRAM burst, an L2
// hit, an AES round, a page-fault trap — charges cycles to a Clock and
// picojoules to an energy Meter. Wall-clock time never leaks into results,
// which keeps every experiment reproducible bit-for-bit from a seed.
package sim

import (
	"fmt"
	"math/rand"
	"sync"
)

// Clock is the simulated time source. One Clock is shared by all components
// of a platform, and a platform is owned by exactly one goroutine — the
// parallel harness (bench.RunAll) isolates experiments by giving each its
// own platform rather than sharing one. Advance sits on the critical path of
// every simulated memory access, so the counter is a plain field: no mutex,
// no atomic. Under `-race`, genuine cross-goroutine sharing of a platform is
// then a detectable bug instead of a silent interleaving.
type Clock struct {
	cycles uint64
	// hz is the frequency used to convert cycles to wall time.
	hz uint64
}

// NewClock returns a clock ticking at the given base frequency in Hz.
func NewClock(hz uint64) *Clock {
	if hz == 0 {
		panic("sim: clock frequency must be non-zero")
	}
	return &Clock{hz: hz}
}

// Clone returns an independent clock at the same cycle count and frequency.
func (c *Clock) Clone() *Clock {
	n := *c
	return &n
}

// Advance charges n cycles to the clock.
func (c *Clock) Advance(n uint64) {
	c.cycles += n
}

// Cycles returns the total cycles elapsed.
func (c *Clock) Cycles() uint64 {
	return c.cycles
}

// Hz returns the clock's base frequency.
func (c *Clock) Hz() uint64 { return c.hz }

// Seconds converts the elapsed cycles to seconds.
func (c *Clock) Seconds() float64 {
	return float64(c.Cycles()) / float64(c.hz)
}

// SecondsFor converts a cycle count to seconds at this clock's frequency.
func (c *Clock) SecondsFor(cycles uint64) float64 {
	return float64(cycles) / float64(c.hz)
}

// Span measures the cycles consumed by fn.
func (c *Clock) Span(fn func()) uint64 {
	start := c.Cycles()
	fn()
	return c.Cycles() - start
}

// CostTable holds the cycle cost of every primitive hardware operation. The
// defaults are calibrated per platform in package soc so that the absolute
// throughput anchors from the paper (e.g. AES MB/s in Figure 11) come out in
// the right range.
type CostTable struct {
	// Memory hierarchy, per 32-bit word access unless noted.
	DRAMAccess  uint64 // CPU load/store that reaches DRAM (L2 miss, uncached)
	L2Hit       uint64 // CPU load/store served by the L2 cache
	IRAMAccess  uint64 // CPU load/store to on-SoC SRAM
	DRAMBurst   uint64 // per cache-line fill/write-back on the external bus
	DMAWordCost uint64 // DMA engine per-word transfer cost

	// CPU events.
	ContextSwitch uint64 // register spill + scheduler dispatch
	PageFaultTrap uint64 // trap entry/exit overhead, excluding handler work
	IRQToggle     uint64 // enable or disable interrupts
	TLBFill       uint64 // page-table walk on translation
	BypassPenalty uint64 // extra cost when the L2 cannot allocate (all ways
	// locked): single-beat non-cacheable transactions forgo burst transfers

	// Crypto.
	AESRoundCompute uint64 // ALU work per AES round per 16-byte block,
	// excluding the table-lookup memory traffic which is charged through the
	// memory hierarchy costs above.
	AcceleratorSetup   uint64  // fixed cost to program the crypto accelerator
	AcceleratorPerByte float64 // accelerator cycles per byte at full clock
}

// EnergyTable holds per-operation energy in picojoules. Values are
// calibrated so full-system numbers (Figure 5, Figure 12, the 70 J
// whole-memory encryption anchor) land in the paper's range.
type EnergyTable struct {
	DRAMAccessPJ   float64 // per 32-bit word moved over the external bus
	L2HitPJ        float64
	IRAMAccessPJ   float64
	CPUCyclePJ     float64 // dynamic energy per busy CPU cycle
	AccelByteP_J   float64 // accelerator energy per byte
	AccelSetupPJ   float64
	PageZeroPerMB  float64 // µJ per MB for the freed-page zeroing thread, in pJ units
	BatteryJ       float64 // usable battery capacity in Joules
	IdleSystemPJPC float64 // static leakage per cycle (whole SoC)
}

// Meter accumulates energy in picojoules. Like Clock it is charged on every
// simulated access and shares the single-goroutine ownership contract, so
// the accumulator is a plain float — float addition is order-sensitive, and
// a fixed owner goroutine is also what keeps the sum bit-reproducible.
type Meter struct {
	pj float64
}

// Clone returns an independent meter at the same accumulated energy.
func (m *Meter) Clone() *Meter {
	n := *m
	return &n
}

// Charge adds pj picojoules to the meter.
func (m *Meter) Charge(pj float64) {
	m.pj += pj
}

// PJ returns accumulated picojoules.
func (m *Meter) PJ() float64 {
	return m.pj
}

// Joules returns accumulated energy in Joules.
func (m *Meter) Joules() float64 { return m.PJ() * 1e-12 }

// MicroJoules returns accumulated energy in µJ.
func (m *Meter) MicroJoules() float64 { return m.PJ() * 1e-6 }

// Span measures the energy consumed by fn.
func (m *Meter) Span(fn func()) float64 {
	start := m.PJ()
	fn()
	return m.PJ() - start
}

// fibSource is math/rand's additive lagged-Fibonacci generator (Mitchell &
// Reeds, x[n] = x[n-273] + x[n-607]), reimplemented in-repo so the whole
// generator state is a copyable value: cloning an RNG is a struct copy
// instead of a replay of every step consumed since seeding, which is what
// makes world forking O(1) in stream position. Output is bit-identical to
// rand.NewSource for every seed (TestFibSourceMatchesMathRand); the frozen
// seeding table it folds in lives in rngcooked_gen.go, extracted from the
// toolchain by scripts/extract_rng_cooked.sh.
//
// Seeding is lazy. Most RNGs serve a few dozen draws (the explorer seeds
// one per tree node), but seeding fills 607 slots at three LCG steps each.
// So Seed fills nothing, and each of the first lazyDraws draws fills the
// two slots it reads first; then the rest are filled at once.
type fibSource struct {
	tap, feed int
	vec       [fibLen]int64
	seed      uint64 // the normalised seed: the LCG state before its first step
	lazy      int    // draws left before the unread slots are filled
}

const (
	fibLen   = 607
	fibTap   = 273
	fibMask  = 1<<63 - 1
	int32Max = 1<<31 - 1
	lcgA     = 48271 // the seeding LCG's multiplier (see seedPow)
	// lazyDraws is how many draws fill slots one by one. It must not
	// exceed fibTap: from draw fibTap+1 on, the tap reads slots that
	// earlier draws wrote.
	lazyDraws = 64
)

// seedPow[i] is lcgA^(21+3i) mod (2^31-1). math/rand stirs the seed into
// the vector with the Lehmer LCG x -> lcgA*x mod (2^31-1), stepping it 20
// times and then three times per slot, so slot i's first LCG state is
// seedPow[i] times the seed.
var seedPow = func() (p [fibLen]uint64) {
	x := uint64(1)
	for i := 0; i < 21; i++ {
		x = x * lcgA % int32Max
	}
	for i := range p {
		p[i] = x
		x = x * lcgA % int32Max * lcgA % int32Max * lcgA % int32Max
	}
	return p
}()

// Seed initialises the generator deterministically from seed, exactly as
// math/rand does: three LCG draws per slot, whitened by the cooked table.
// The slots themselves are filled as the first draws read them.
func (f *fibSource) Seed(seed int64) {
	f.tap = 0
	f.feed = fibLen - fibTap

	seed %= int32Max
	if seed < 0 {
		seed += int32Max
	}
	if seed == 0 {
		seed = 89482311
	}
	f.seed = uint64(seed)
	f.lazy = lazyDraws
}

// fill computes slot i of the seeded vector: the LCG is a multiplication
// modulo 2^31-1, so slot i's three states follow from seedPow[i].
func (f *fibSource) fill(i int) {
	x := seedPow[i] * f.seed % int32Max
	u := int64(x) << 40
	x = x * lcgA % int32Max
	u ^= int64(x) << 20
	x = x * lcgA % int32Max
	u ^= int64(x)
	f.vec[i] = u ^ rngCooked[i]
}

// fillLazy fills the two slots the current draw reads, which no earlier
// draw has read: draw k reads slots fibLen-fibTap-k and fibLen-k. The last
// lazy draw also fills every slot still unread, below the feed and between
// the two cursors.
func (f *fibSource) fillLazy() {
	f.fill(f.feed)
	f.fill(f.tap)
	if f.lazy--; f.lazy == 0 {
		for i := 0; i < f.feed; i++ {
			f.fill(i)
		}
		for i := fibLen - fibTap; i < f.tap; i++ {
			f.fill(i)
		}
	}
}

// Uint64 advances the recurrence one step.
func (f *fibSource) Uint64() uint64 {
	f.tap--
	if f.tap < 0 {
		f.tap += fibLen
	}
	f.feed--
	if f.feed < 0 {
		f.feed += fibLen
	}
	if f.lazy > 0 {
		f.fillLazy()
	}
	x := f.vec[f.feed] + f.vec[f.tap]
	f.vec[f.feed] = x
	return uint64(x)
}

// Int63 returns the step masked to 63 bits, as rand.Source.Int63 does.
func (f *fibSource) Int63() int64 { return int64(f.Uint64() & fibMask) }

// countingSource wraps the generator and counts how many times it has been
// stepped. The generator advances exactly one internal step per Int63 or
// Uint64 call, so the pair (seed, steps) is a complete, restorable
// description of the generator's position — the hook that makes RNG state
// capturable for world snapshots without giving up math/rand's exact output
// streams.
type countingSource struct {
	src fibSource
	n   uint64 // generator steps delivered since seeding
}

func (s *countingSource) Int63() int64    { s.n++; return s.src.Int63() }
func (s *countingSource) Uint64() uint64  { s.n++; return s.src.Uint64() }
func (s *countingSource) Seed(seed int64) { s.src.Seed(seed); s.n = 0 }

// RNG wraps a seeded deterministic random source. All stochastic models
// (remanence decay, workload access patterns) draw from an RNG owned by the
// platform so experiments replay identically for a fixed seed. Determinism
// requires a fixed draw order, which in turn requires a single owner
// goroutine — so, like Clock and Meter, RNG is deliberately unsynchronised.
//
// Every value-producing method delegates to a *rand.Rand over the counting
// source, except Read and Float64. rand.Rand keeps its byte-carry state
// (readVal, readPos) in unexported fields, so Read reimplements math/rand's
// exact read algorithm over the same source to keep that carry state here,
// where State can capture it. Float64, the remanence sampler's per-flip
// draw, reimplements rand.Rand.Float64 to skip an interface call. Both
// streams are identical to rand.Rand's.
type RNG struct {
	seed    int64
	src     countingSource
	r       *rand.Rand
	readVal int64
	readPos int8
}

// NewRNG returns a deterministic random source for the given seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{}
	g.Reseed(seed)
	g.r = rand.New(&g.src)
	return g
}

// Reseed repositions g at the start of seed's stream, leaving it exactly as
// NewRNG(seed) would (read carry included) without allocating: a caller that
// seeds one short-lived stream per step reuses a single RNG. g.r wraps g.src
// in place and keeps no stream state of its own that g uses.
func (g *RNG) Reseed(seed int64) {
	g.seed = seed
	g.src.Seed(seed)
	g.readVal, g.readPos = 0, 0
}

// Float64 returns a uniform value in [0,1). It is rand.Rand.Float64 on the
// source directly, one interface call fewer per draw: a 63-bit step over
// 2^63, resampled in the rare case the division rounds up to 1.
func (g *RNG) Float64() float64 {
	for {
		if f := float64(g.src.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Intn returns a uniform value in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uint32 returns a uniform 32-bit value.
func (g *RNG) Uint32() uint32 { return g.r.Uint32() }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Read fills p with random bytes. It always returns len(p), nil. The
// algorithm mirrors math/rand's read: seven bytes are peeled off each
// generator step, and the partially consumed word carries across calls.
func (g *RNG) Read(p []byte) (int, error) {
	pos, val := g.readPos, g.readVal
	for n := 0; n < len(p); n++ {
		if pos == 0 {
			val = g.src.Int63()
			pos = 7
		}
		p[n] = byte(val)
		val >>= 8
		pos--
	}
	g.readPos, g.readVal = pos, val
	return len(p), nil
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// RNGState is a compact capture of an RNG's position in its deterministic
// stream: the seed, the number of generator steps consumed, and the
// byte-read carry. RestoreRNG rebuilds an RNG that continues the stream
// exactly where the captured one stood.
type RNGState struct {
	Seed    int64
	Steps   uint64
	ReadVal int64
	ReadPos int8
}

// State captures the RNG's current stream position.
func (g *RNG) State() RNGState {
	return RNGState{Seed: g.seed, Steps: g.src.n, ReadVal: g.readVal, ReadPos: g.readPos}
}

// Clone returns an independent RNG positioned at the same stream point.
// The generator state is a value, so this is a struct copy — O(1) in how
// far the stream has advanced, unlike RestoreRNG's replay (which exists
// for rebuilding from a serialised RNGState, where the vector is absent).
func (g *RNG) Clone() *RNG {
	n := &RNG{seed: g.seed, src: g.src, readVal: g.readVal, readPos: g.readPos}
	n.r = rand.New(&n.src)
	return n
}

// RestoreRNG returns a fresh RNG positioned at the captured state by
// replaying the recorded number of generator steps. Steps are cheap
// (one feedback-register update each), so restore cost is nanoseconds per
// thousand draws — negligible against the boot it replaces.
func RestoreRNG(st RNGState) *RNG {
	g := NewRNG(st.Seed)
	for i := uint64(0); i < st.Steps; i++ {
		g.src.src.Uint64()
	}
	g.src.n = st.Steps
	g.readVal, g.readPos = st.ReadVal, st.ReadPos
	return g
}

// Event is a single entry in a component trace.
type Event struct {
	Cycle uint64
	Kind  string
	Attrs string
}

// Tracer is an optional, bounded event recorder. A nil *Tracer is valid and
// records nothing, so components can trace unconditionally.
type Tracer struct {
	mu     sync.Mutex
	max    int
	events []Event
}

// NewTracer returns a tracer retaining at most max events (0 means 4096).
func NewTracer(max int) *Tracer {
	if max <= 0 {
		max = 4096
	}
	return &Tracer{max: max}
}

// Record appends an event unless the tracer is nil or full.
func (t *Tracer) Record(cycle uint64, kind, format string, args ...any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.events) >= t.max {
		return
	}
	t.events = append(t.events, Event{Cycle: cycle, Kind: kind, Attrs: fmt.Sprintf(format, args...)})
}

// Events returns a copy of the recorded events.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Reset clears the recorded events.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = nil
	t.mu.Unlock()
}
