package remanence

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sentry/internal/mem"
	"sentry/internal/sim"
)

// refDecay is the sampler as it was before the threshold table: one
// math.Log per draw. It is the reference Decay must match byte for byte
// and draw for draw.
func refDecay(d *mem.Device, rng *sim.RNG, t, tempC float64) {
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
	invLogR := 1 / math.Log(r)
	d.Store().MutatePages(func(base uint64, data []byte) {
		i := 0
		for i < len(data) {
			u := rng.Float64()
			if u <= 0 {
				return
			}
			gap := math.Floor(math.Log(u) * invLogR)
			if gap >= float64(len(data)-i) {
				return
			}
			i += int(gap)
			data[i] = GroundByte(base + uint64(i))
			i++
		}
	})
}

// decayCell is one (technology, duration, temperature) the simulator cuts
// power for: the 50 ms blip, a 0.5 s cut and the 2 s held reset at room
// temperature, and the held reset of a frozen device.
type decayCell struct {
	tech  mem.Technology
	t     float64
	tempC float64
}

func decayCells() []decayCell {
	var cells []decayCell
	for _, tech := range []mem.Technology{mem.TechDRAM, mem.TechSRAM} {
		for _, tc := range [][2]float64{{0.05, RoomTempC}, {0.5, RoomTempC}, {2, RoomTempC}, {2, -20}} {
			cells = append(cells, decayCell{tech, tc[0], tc[1]})
		}
	}
	return cells
}

// twinDevices returns two devices of technology tech with identical
// random content on a random, sparse set of pages (some written in full,
// some only in part).
func twinDevices(tech mem.Technology, src *rand.Rand) (*mem.Device, *mem.Device) {
	const pages = 64
	a := mem.NewDevice("a", tech, 0, pages*mem.PageSize)
	b := mem.NewDevice("b", tech, 0, pages*mem.PageSize)
	buf := make([]byte, mem.PageSize)
	for n := 1 + src.Intn(6); n > 0; n-- {
		pn := uint64(src.Intn(pages))
		lo := src.Intn(mem.PageSize)
		if src.Intn(2) == 0 {
			lo = 0
		}
		src.Read(buf[lo:])
		a.Store().Write(pn*mem.PageSize+uint64(lo), buf[lo:])
		b.Store().Write(pn*mem.PageSize+uint64(lo), buf[lo:])
	}
	return a, b
}

func sameStores(t *testing.T, what string, a, b *mem.Store) {
	t.Helper()
	pa, pb := a.TouchedPages(), b.TouchedPages()
	if fmt.Sprint(pa) != fmt.Sprint(pb) {
		t.Fatalf("%s: touched pages %v, reference %v", what, pa, pb)
	}
	x, y := make([]byte, mem.PageSize), make([]byte, mem.PageSize)
	for _, off := range pa {
		a.Read(off, x)
		b.Read(off, y)
		if !bytes.Equal(x, y) {
			t.Fatalf("%s: page %#x differs from the reference", what, off)
		}
	}
}

// TestDecayMatchesLogSampler: over random seeds and page contents, Decay
// leaves a store byte-identical to the math.Log reference and its RNG at
// the same stream position, for every power cut the simulator makes and
// for random durations and temperatures.
func TestDecayMatchesLogSampler(t *testing.T) {
	src := rand.New(rand.NewSource(1))
	cells := decayCells()
	for i := 0; i < 24; i++ {
		tech := []mem.Technology{mem.TechDRAM, mem.TechSRAM}[i%2]
		cells = append(cells, decayCell{tech, src.Float64() * 8, -30 + 70*src.Float64()})
	}
	for _, c := range cells {
		for trial := 0; trial < 40; trial++ {
			seed := src.Int63()
			a, b := twinDevices(c.tech, src)
			ga, gb := sim.NewRNG(seed), sim.NewRNG(seed)
			Decay(a, ga, c.t, c.tempC)
			refDecay(b, gb, c.t, c.tempC)
			what := fmt.Sprintf("%v %gs at %g°C, seed %d", c.tech, c.t, c.tempC, seed)
			sameStores(t, what, a.Store(), b.Store())
			if ga.State() != gb.State() || ga.Uint64() != gb.Uint64() {
				t.Fatalf("%s: next draw differs from the reference", what)
			}
		}
	}
}

// thresholdMismatch checks the float64s within span ulps of tab's
// threshold T_{k+1} against math.Log and describes the first disagreement.
func thresholdMismatch(tab *gapTable, k, span int) string {
	bits := int64(math.Float64bits(tab.thresh[k]))
	for d := -span; d <= span; d++ {
		u := math.Float64frombits(uint64(bits + int64(d)))
		if u <= 0 || u >= 1 {
			continue
		}
		if got, want := tab.gap(u), math.Floor(math.Log(u)*tab.invLogR); got != want {
			return fmt.Sprintf("T_%d%+d ulp (%v): table skip %v, math.Log skip %v", k+1, d, u, got, want)
		}
	}
	return ""
}

// TestGapTableBoundaries checks each threshold of every cell's table, and
// its 2^16 neighbours either side, against math.Log; then moves one
// threshold by one ulp either way and requires the check to notice. The
// last threshold moved up is the one exception: a draw at or below it
// takes the logarithm, so that move changes no skip.
func TestGapTableBoundaries(t *testing.T) {
	for _, c := range decayCells() {
		r := CurveFor(c.tech).ByteRetention(c.t, c.tempC)
		tab := newGapTable(r)
		if len(tab.thresh) == 0 {
			t.Fatalf("%v %gs at %g°C (r=%v): empty table", c.tech, c.t, c.tempC, r)
		}
		for k := range tab.thresh {
			if m := thresholdMismatch(tab, k, 1<<16); m != "" {
				t.Fatalf("%v %gs at %g°C (r=%v): %s", c.tech, c.t, c.tempC, r, m)
			}
			for _, d := range []int64{-1, 1} {
				if k == len(tab.thresh)-1 && d > 0 {
					continue
				}
				moved := &gapTable{invLogR: tab.invLogR, thresh: append([]float64(nil), tab.thresh...)}
				moved.thresh[k] = math.Float64frombits(uint64(int64(math.Float64bits(tab.thresh[k])) + d))
				if thresholdMismatch(moved, k, 2) == "" {
					t.Fatalf("%v %gs at %g°C: T_%d moved %+d ulp went unnoticed", c.tech, c.t, c.tempC, k+1, d)
				}
			}
		}
	}
}

// TestGapTableShape: thresholds fall strictly, the 2 s held reset's table
// decides all but 2^-20 of its draws, and a retention too close to 1 for
// short skips to matter still gets a table of maxThresholds entries.
func TestGapTableShape(t *testing.T) {
	for _, c := range decayCells() {
		tab := newGapTable(CurveFor(c.tech).ByteRetention(c.t, c.tempC))
		for k := 1; k < len(tab.thresh); k++ {
			if tab.thresh[k] >= tab.thresh[k-1] {
				t.Fatalf("%v %gs: T_%d = %v does not fall below T_%d = %v", c.tech, c.t, k+1, tab.thresh[k], k, tab.thresh[k-1])
			}
		}
	}
	held := newGapTable(DRAMCurve.ByteRetention(2, RoomTempC))
	if last := held.thresh[len(held.thresh)-1]; last > tailMass {
		t.Fatalf("2 s DRAM table: %d thresholds ending at %v", len(held.thresh), last)
	}
	blip := newGapTable(DRAMCurve.ByteRetention(0.05, RoomTempC))
	if len(blip.thresh) != maxThresholds {
		t.Fatalf("50 ms DRAM table: %d thresholds, want %d", len(blip.thresh), maxThresholds)
	}
}
