package attack

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"sentry/internal/aes"
	"sentry/internal/mem"
	"sentry/internal/remanence"
	"sentry/internal/sim"
)

// FuzzColdbootScan throws arbitrary memory images and decay windows at the
// dump scanners. The scanners must never panic, must agree with each other
// (FuzzyContains at budget zero IS Contains; Contains implies FuzzyContains
// at any budget), and must never report the marker recovered from an image
// that never contained it — decay collapses bytes to the 0x00/0xFF ground
// pattern and cannot mint ASCII marker bytes, so absence survives decay.
//
// FindAESKeys and FuzzyContains must also return exactly what their
// brute-force references return, on the decayed image and on a second image
// that plants a key schedule with dmg%15 damaged bytes and a marker copy
// with up to budget+1 mismatches, either one possibly across a page
// boundary, under budgets up to and past the marker length.
func FuzzColdbootScan(f *testing.F) {
	marker := []byte("MARKER-0123456789")
	f.Add([]byte("hello world"), uint16(0), 0.0, uint8(0), uint8(0), uint8(0))
	f.Add(append([]byte("junk"), marker...), uint16(512), 0.05, uint8(3), uint8(4), uint8(5))
	f.Add(bytes.Repeat([]byte{0xAA}, 4096), uint16(4000), 2.0, uint8(14), uint8(17), uint8(18))
	f.Add(marker[:10], uint16(100), 0.5, uint8(7), uint8(2), uint8(3))
	// A schedule and a marker that straddle page boundaries, and a budget
	// at the marker length.
	f.Add([]byte("x"), uint16(4095), 0.0, uint8(12), uint8(8), uint8(9))
	f.Add([]byte("y"), uint16(8190), 0.0, uint8(1), uint8(len(marker)), uint8(1))
	f.Add([]byte("z"), uint16(12279), 0.0, uint8(0), uint8(1), uint8(2))
	f.Add([]byte("w"), uint16(6140), 0.0, uint8(14), uint8(len(marker)-1), uint8(len(marker)))
	f.Fuzz(func(t *testing.T, data []byte, off uint16, secs float64, dmg, budget, miss uint8) {
		const size = 4 * mem.PageSize
		dev := mem.NewDevice("dump", mem.TechDRAM, 0, size)
		// Sanitise the fuzzed decay window: finite, non-negative, bounded.
		if math.IsNaN(secs) || math.IsInf(secs, 0) || secs < 0 {
			secs = 0
		}
		if secs > 100 {
			secs = 100
		}
		base := mem.PhysAddr(uint64(off) % size)
		if n := size - uint64(base); uint64(len(data)) > n {
			data = data[:n]
		}
		if len(data) > 0 {
			dev.Write(base, data)
		}
		// The marker is in the image iff it is in what we wrote: the rest of
		// the device is architectural zero and the marker has no zero bytes.
		planted := bytes.Contains(data, marker)

		remanence.Decay(dev, sim.NewRNG(int64(off)+1), secs, remanence.RoomTempC)
		st := dev.Store()

		got := Contains(st, marker)
		if got && !planted {
			t.Fatalf("false positive: marker recovered from an image that never held it (off=%d secs=%g)", base, secs)
		}
		if secs == 0 && planted && !got {
			t.Fatalf("false negative: intact image lost the marker (off=%d)", base)
		}
		if fz := FuzzyContains(st, marker, 0); fz != got {
			t.Fatalf("FuzzyContains(0)=%v disagrees with Contains=%v", fz, got)
		}
		if got && !FuzzyContains(st, marker, 4) {
			t.Fatal("Contains=true but FuzzyContains(4)=false — fuzzy match is not monotone")
		}
		if n := CountPattern(st, marker[:8]); n < 0 {
			t.Fatalf("negative pattern count %d", n)
		}
		for _, key := range FindAESKeys(st) {
			if len(key) != 16 {
				t.Fatalf("keyfinder returned a %d-byte key", len(key))
			}
			if bytes.Equal(key, make([]byte, 16)) {
				t.Fatal("keyfinder returned the all-zero key (decayed memory, not a hit)")
			}
		}
		k := int(budget) % (len(marker) + 3) // 0 .. len+2
		sameAsReference(t, "decayed", st, marker, k)

		// The second image: the fuzzed bytes, then a damaged key schedule in
		// the first half and a damaged marker copy in the second, each at a
		// fuzzed offset that may straddle a page boundary.
		img := mem.NewStore(size)
		if len(data) > 0 {
			img.Write(uint64(base), data)
		}
		rng := sim.NewRNG(int64(off) ^ int64(dmg)<<16 ^ int64(miss)<<24)
		key := make([]byte, 16)
		rng.Read(key)
		ms := &aes.MapStore{}
		if _, err := aes.NewPlaced(ms, key, 0); err != nil {
			t.Fatal(err)
		}
		sched := append([]byte(nil), ms.Data[aes.EncKeysOffset:aes.EncKeysOffset+176]...)
		for i := 0; i < int(dmg)%15; i++ {
			sched[rng.Intn(len(sched))] ^= byte(1 + rng.Intn(255))
		}
		schedAt := uint64(off) % (size/2 - uint64(len(sched))) &^ 3 // schedules are word-aligned
		img.Write(schedAt, sched)
		copyOf := append([]byte(nil), marker...)
		m := int(miss) % (k + 2) // 0 .. k+1 mismatches
		if m > len(copyOf) {
			m = len(copyOf)
		}
		for _, i := range rng.Perm(len(copyOf))[:m] {
			copyOf[i] ^= 0x80
		}
		img.Write(size/2+uint64(off)%(size/2-uint64(len(copyOf))), copyOf)
		sameAsReference(t, "planted", img, marker, k)
		// The schedule is written last in its half, so undamaged it is
		// intact.
		if dmg%15 == 0 && !containsKey(FindAESKeys(img), key) {
			t.Fatalf("intact schedule at %#x: key %x not found", schedAt, key)
		}
	})
}

// sameAsReference fails unless FindAESKeys and FuzzyContains (at budget k)
// return what the brute-force references return on st.
func sameAsReference(t *testing.T, what string, st *mem.Store, marker []byte, k int) {
	t.Helper()
	if got, want := FindAESKeys(st), refFindAESKeys(st); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: FindAESKeys = %x, reference %x", what, got, want)
	}
	if got, want := FuzzyContains(st, marker, k), refFuzzyContains(st, marker, k); got != want {
		t.Fatalf("%s: FuzzyContains(budget %d) = %v, reference %v", what, k, got, want)
	}
}

func containsKey(keys [][]byte, key []byte) bool {
	for _, k := range keys {
		if bytes.Equal(k, key) {
			return true
		}
	}
	return false
}

// refFuzzyContains is FuzzyContains without the pigeonhole prefilter: it
// counts the mismatches of every window.
func refFuzzyContains(st *mem.Store, needle []byte, maxMismatch int) bool {
	if len(needle) == 0 {
		return true
	}
	if maxMismatch <= 0 {
		return Contains(st, needle)
	}
	buf := make([]byte, mem.PageSize+len(needle)-1)
	size := st.Size()
	for _, base := range st.TouchedPages() {
		n := uint64(len(buf))
		if base+n > size {
			n = size - base
		}
		st.Read(base, buf[:n])
		win := buf[:n]
		for off := 0; off+len(needle) <= len(win); off++ {
			bad := 0
			for i, b := range needle {
				if win[off+i] != b {
					bad++
					if bad > maxMismatch {
						break
					}
				}
			}
			if bad <= maxMismatch {
				return true
			}
		}
	}
	return false
}

// refFindAESKeys is FindAESKeys without the linear-relation prefilter: it
// counts every window's relation failures one by one.
func refFindAESKeys(st *mem.Store) [][]byte {
	var keys [][]byte
	seen := map[[16]byte]bool{}
	const schedBytes = 176
	const schedWords = 44
	buf := make([]byte, mem.PageSize+schedBytes)
	zero := make([]byte, len(buf))
	size := st.Size()
	decoded := make([]uint32, 0, len(buf)/4)
	for _, base := range st.TouchedPages() {
		n := uint64(len(buf))
		if base+n > size {
			n = size - base
		}
		st.Read(base, buf[:n])
		if bytes.Equal(buf[:n], zero[:n]) {
			continue
		}
		decoded = decoded[:0]
		for o := 0; o+4 <= int(n); o += 4 {
			decoded = append(decoded, binary.BigEndian.Uint32(buf[o:]))
		}
		for off := 0; off+schedBytes <= int(n); off += 4 {
			words := decoded[off/4 : off/4+schedWords]
			bad := 0
			for i := 4; i < schedWords && bad <= maxScheduleViolations; i++ {
				if words[i] != words[i-4]^aes.ScheduleF(i, words[i-1]) {
					bad++
				}
			}
			if bad > maxScheduleViolations {
				continue
			}
			allZero := true
			for _, w := range words {
				if w != 0 {
					allZero = false
					break
				}
			}
			if allZero {
				continue
			}
			key, ok := aes.ReconstructKeyFromDamagedSchedule(words, reconstructAgreeThreshold)
			if !ok {
				continue
			}
			var k16 [16]byte
			copy(k16[:], key)
			if k16 == ([16]byte{}) {
				continue
			}
			if !seen[k16] {
				seen[k16] = true
				keys = append(keys, key)
			}
		}
	}
	return keys
}
