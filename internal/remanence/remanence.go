// Package remanence models the data-remanence effect of volatile memory:
// after a power cut, cells drift toward their ground state over time instead
// of clearing instantly, which is what makes cold-boot attacks possible
// (Halderman et al., USENIX Security '08).
//
// The model is stochastic and per-byte: after t seconds without power at
// temperature T, each byte independently survives with probability r(t, T)
// and otherwise collapses to its ground-state pattern. The DRAM curve is
// calibrated so that the paper's Table 2 pattern-survival measurements are
// reproduced at room temperature:
//
//	~50 ms power blip (device reflash)  → 97.5 % of 8-byte patterns survive
//	2 s reset                           → 0.1 % of 8-byte patterns survive
//
// An n-byte pattern survives iff all n bytes survive, so the per-byte curve
// is the n-th root of the measured pattern-survival curve. SRAM decays an
// order of magnitude more slowly than DRAM (Skorobogatov '02) — which is why
// the paper relies on the boot firmware explicitly zeroing iRAM, not on SRAM
// decay, for cold-boot safety.
package remanence

import (
	"math"
	"sync"
	"sync/atomic"

	"sentry/internal/mem"
	"sentry/internal/sim"
)

// RoomTempC is the reference temperature for the calibrated curves.
const RoomTempC = 20.0

// Curve is a stretched-exponential decay curve: the probability that a byte
// still holds its value t seconds after power-off at the reference
// temperature is exp(-(t/Tau)^K).
type Curve struct {
	Tau float64 // characteristic decay time in seconds at RoomTempC
	K   float64 // stretch exponent
}

// Calibrated technology curves. DRAMCurve solves the paper's two Table 2
// anchors exactly (see package comment); SRAMCurve is 10× slower.
var (
	DRAMCurve = Curve{Tau: 2.196, K: 1.5216}
	SRAMCurve = Curve{Tau: 21.96, K: 1.5216}
)

// CurveFor returns the decay curve for a storage technology.
func CurveFor(t mem.Technology) Curve {
	if t == mem.TechSRAM {
		return SRAMCurve
	}
	return DRAMCurve
}

// ByteRetention returns the probability that a single byte survives t
// seconds without power at temperature tempC. Cooling slows decay: Tau
// doubles for every 10 °C below room temperature (and halves above), the
// standard Arrhenius-style approximation used in the cold-boot literature.
func (c Curve) ByteRetention(t, tempC float64) float64 {
	if t <= 0 {
		return 1
	}
	tau := c.Tau * math.Pow(2, (RoomTempC-tempC)/10)
	return math.Exp(-math.Pow(t/tau, c.K))
}

// PatternRetention returns the probability that an n-byte pattern survives
// intact, which is the per-byte retention raised to the n-th power. This is
// the quantity the paper's Table 2 methodology measures by grepping memory
// dumps for an 8-byte pattern.
func (c Curve) PatternRetention(t, tempC float64, n int) float64 {
	return math.Pow(c.ByteRetention(t, tempC), float64(n))
}

// GroundByte returns the value a fully decayed byte collapses to. Real DRAM
// ranks alternate ground polarity by row; we model that as 64-byte rows of
// alternating 0x00/0xFF, which ensures decayed memory does not accidentally
// recreate interesting patterns (and lets tests distinguish "decayed" from
// "never written").
func GroundByte(addr uint64) byte {
	if addr>>6&1 == 1 {
		return 0xFF
	}
	return 0x00
}

// Decay applies t seconds of power-off decay at tempC to every materialised
// byte of the device, in place, drawing randomness from rng. Untouched
// (never-written) pages are already at architectural zero and are skipped.
//
// Each byte independently flips to ground with probability 1-r, but instead
// of one RNG draw per byte (≈1 G draws for a 1 GB fill) the sampler draws
// the gap to the next flipped byte from the geometric distribution the
// per-byte Bernoulli process induces: skip = floor(ln U / ln r) surviving
// bytes precede each flip. The work is O(flipped bytes), and the resulting
// flip pattern has exactly the per-byte distribution of the naive loop.
// The skip is read off r's threshold table (gapTable), which gives the
// same value as the logarithm for every draw.
func Decay(d *mem.Device, rng *sim.RNG, t, tempC float64) {
	r := CurveFor(d.Tech()).ByteRetention(t, tempC)
	if r >= 1 {
		return
	}
	if r <= 0 {
		d.Store().MutatePages(func(base uint64, data []byte) {
			for i := range data {
				data[i] = GroundByte(base + uint64(i))
			}
		})
		return
	}
	tab := tableFor(r)
	d.Store().MutatePages(func(base uint64, data []byte) {
		i := 0
		for i < len(data) {
			u := rng.Float64()
			if u <= 0 {
				// log(0) would overflow the skip; a zero draw means "no flip
				// within any representable gap".
				return
			}
			gap := tab.gap(u)
			if gap >= float64(len(data)-i) {
				return
			}
			i += int(gap)
			data[i] = GroundByte(base + uint64(i))
			i++
		}
	})
}

// gapTable turns a draw u into the sampler's skip, floor(ln u · invLogR),
// without a logarithm for the short skips that make up nearly every draw.
// thresh[k-1] is T_k, the largest float64 whose skip is at least k. The
// skip never grows as u grows (math.Log is monotone, which the boundary
// test checks around every threshold, and invLogR is negative), so u's
// skip is the number of leading thresholds u does not exceed: k when
// T_{k+1} < u <= T_k. Only a draw at or below the last threshold pays for
// math.Log. Because the thresholds are found with the very expression they
// replace, the table and the logarithm agree on every draw.
type gapTable struct {
	invLogR float64
	thresh  []float64
}

// gap returns u's skip, as a float64 like the expression it replaces.
func (t *gapTable) gap(u float64) float64 {
	for k, tk := range t.thresh {
		if u > tk {
			return float64(k)
		}
	}
	return math.Floor(math.Log(u) * t.invLogR)
}

const (
	// maxThresholds caps a table's length, and with it the scan a long
	// skip pays before it falls back to the logarithm.
	maxThresholds = 16
	// tailMass ends a table early: a draw falls below T_k with
	// probability T_k, so once that is 2^-20 the logarithm is rare.
	tailMass = 0x1p-20
	// maxTables bounds the cache. Power cuts use a handful of fixed
	// durations; arbitrary ones (fuzzing) get a table without thresholds.
	maxTables = 64
)

// newGapTable finds each threshold by bisection over the bit patterns of
// the positive float64s, which order like their values.
func newGapTable(r float64) *gapTable {
	t := &gapTable{invLogR: 1 / math.Log(r)}
	skip := func(bits uint64) float64 {
		return math.Floor(math.Log(math.Float64frombits(bits)) * t.invLogR)
	}
	hi := math.Float64bits(1) // skip 0: below every k >= 1
	for k := 1; k <= maxThresholds; k++ {
		want := float64(k)
		lo := uint64(1) // the smallest positive float64
		if skip(lo) < want {
			break // no positive draw skips k bytes
		}
		for hi-lo > 1 { // invariant: skip(lo) >= k > skip(hi)
			if mid := lo + (hi-lo)/2; skip(mid) >= want {
				lo = mid
			} else {
				hi = mid
			}
		}
		tk := math.Float64frombits(lo)
		t.thresh = append(t.thresh, tk)
		if tk <= tailMass {
			break
		}
		// hi stays T_k's successor, whose skip is below k < k+1.
	}
	return t
}

// tables caches one gapTable per retention value; an entry is a pure
// function of its key, so every platform and goroutine shares it.
var (
	tables    sync.Map // float64 -> *gapTable
	numTables atomic.Int32
)

func tableFor(r float64) *gapTable {
	if t, ok := tables.Load(r); ok {
		return t.(*gapTable)
	}
	if numTables.Load() >= maxTables {
		return &gapTable{invLogR: 1 / math.Log(r)}
	}
	t, loaded := tables.LoadOrStore(r, newGapTable(r))
	if !loaded {
		numTables.Add(1)
	}
	return t.(*gapTable)
}
