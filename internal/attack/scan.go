// Package attack implements the three in-scope memory attacks of the
// paper's threat model (§3.1) against the simulated platform:
//
//   - Cold boot (coldboot.go): reboot/reflash/reset the device into an
//     attacker image and scrape remanent memory — including Halderman-style
//     AES key-schedule recovery from DRAM dumps.
//   - Bus monitoring (busmon.go): a probe on the external memory bus that
//     records every transaction, used both for direct data capture and for
//     the access-pattern side channel that recovers AES keys from first-
//     round T-table lookups.
//   - DMA (dma.go): a malicious peripheral programming a DMA engine to
//     scrape physical memory while the device runs.
//
// Every attack returns concrete recovered bytes, so experiments assert
// "the secret was/was not recovered" mechanically (Table 3).
package attack

import (
	"bytes"
	"encoding/binary"

	"sentry/internal/aes"
	"sentry/internal/mem"
)

// CountPattern counts (non-overlapping, stride len(pattern)) occurrences of
// pattern in the store — the paper's Table 2 methodology: fill memory with
// an 8-byte pattern, reset, grep the dump.
func CountPattern(st *mem.Store, pattern []byte) int {
	if len(pattern) == 0 {
		return 0
	}
	count := 0
	buf := make([]byte, mem.PageSize)
	for _, base := range st.TouchedPages() {
		st.Read(base, buf)
		for off := 0; off+len(pattern) <= len(buf); off += len(pattern) {
			if bytes.Equal(buf[off:off+len(pattern)], pattern) {
				count++
			}
		}
	}
	return count
}

// Contains reports whether needle appears anywhere in the store (sliding
// window, page-spanning included).
func Contains(st *mem.Store, needle []byte) bool {
	if len(needle) == 0 {
		return true
	}
	// Read overlapping windows so needles spanning page boundaries hit.
	buf := make([]byte, mem.PageSize+len(needle)-1)
	size := st.Size()
	for _, base := range st.TouchedPages() {
		n := uint64(len(buf))
		if base+n > size {
			n = size - base
		}
		st.Read(base, buf[:n])
		if bytes.Index(buf[:n], needle) >= 0 {
			return true
		}
	}
	return false
}

// FuzzyContains reports whether a window matching needle in all but at
// most maxMismatch bytes appears anywhere in the store (page-spanning
// windows included). This is the recoverable-plaintext test for remanence
// images: bit decay collapses individual bytes toward the ground state, but
// a copy that survives in all but a few positions is still legible to an
// attacker. With maxMismatch zero it degenerates to Contains.
//
// A window within k mismatches matches at least one of k+1 disjoint pieces
// of the needle exactly (pigeonhole), so mismatches are counted only at the
// offsets where bytes.Index finds a piece. With k >= len(needle) there are
// not that many pieces, but then every window is within budget.
func FuzzyContains(st *mem.Store, needle []byte, maxMismatch int) bool {
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
		if fuzzyIndex(buf[:n], needle, maxMismatch) {
			return true
		}
	}
	return false
}

// fuzzyIndex reports whether some window of win is within maxMismatch
// (at least 1) mismatches of needle.
func fuzzyIndex(win, needle []byte, maxMismatch int) bool {
	last := len(win) - len(needle) // the last window offset
	if last < 0 {
		return false
	}
	if maxMismatch >= len(needle) {
		return true // every window is within budget
	}
	pieces := maxMismatch + 1
	for p := 0; p < pieces; p++ {
		lo, hi := p*len(needle)/pieces, (p+1)*len(needle)/pieces
		for from := lo; ; from++ {
			i := bytes.Index(win[from:], needle[lo:hi])
			if i < 0 {
				break
			}
			from += i
			off := from - lo
			if off > last {
				break
			}
			if mismatches(win[off:off+len(needle)], needle, maxMismatch) <= maxMismatch {
				return true
			}
		}
	}
	return false
}

// mismatches counts the positions where a and b differ, stopping once the
// count exceeds limit.
func mismatches(a, b []byte, limit int) int {
	bad := 0
	for i, c := range b {
		if a[i] != c {
			bad++
			if bad > limit {
				break
			}
		}
	}
	return bad
}

// maxScheduleViolations is the damage budget of the error-tolerant
// keyfinder: each decayed byte breaks at most three of the 40 expansion
// relations, so a window with up to 12 violations is still worth a
// reconstruction attempt, while random data violates essentially all 40.
const maxScheduleViolations = 12

// reconstructAgreeThreshold is how many of the 44 words a candidate
// anchor's rebuilt schedule must reproduce: 3/4 agreement is astronomically
// unlikely for noise yet survives several decayed bytes.
const reconstructAgreeThreshold = 33

// FindAESKeys runs the Halderman-style keyfinder over the store: slide a
// 176-byte window (word-aligned), use the AES-128 key-schedule redundancy
// to identify candidates, and reconstruct through bit decay the way the
// cold-boot paper does. Returns the distinct 16-byte keys recovered.
func FindAESKeys(st *mem.Store) [][]byte {
	var keys [][]byte
	seen := map[[16]byte]bool{}
	const schedBytes = 176
	const schedWords = 44
	buf := make([]byte, mem.PageSize+schedBytes)
	zero := make([]byte, len(buf))
	size := st.Size()
	decoded := make([]uint32, 0, len(buf)/4)
	lin := make([]int32, 0, len(buf)/4+1)
	step := make([]int32, 0, len(buf)/4)
	for _, base := range st.TouchedPages() {
		n := uint64(len(buf))
		if base+n > size {
			n = size - base
		}
		st.Read(base, buf[:n])
		// Zeroed pages (the free queue, never-written frames) are the common
		// case in a dump, and an all-zero window is a trap for the relation
		// prefilter: the 30 non-boundary relations all hold (0 == 0^0), so
		// it survives to reconstruction, which then provably fails — every
		// anchor's rebuilt schedule is the expansion of the zero key, whose
		// rcon-injected words can never reach 33-of-44 agreement with zeros.
		// Skip the whole page in one memcmp instead.
		if bytes.Equal(buf[:n], zero[:n]) {
			continue
		}
		// Candidate offsets are word-aligned, so decode each aligned word of
		// the window once instead of re-decoding all 44 per offset (each byte
		// otherwise decodes 44 times).
		decoded = decoded[:0]
		for o := 0; o+4 <= int(n); o += 4 {
			decoded = append(decoded, binary.BigEndian.Uint32(buf[o:]))
		}
		// The 30 relations with i%4 != 0 are linear, w[i] == w[i-4]^w[i-1],
		// so whether one holds depends only on the absolute word index:
		// decide each once per word. lin[j] counts the failures among words
		// [0, j), and step[j] those among words j, j-4, j-8, ... A window at
		// word o owns the failures at o+4..o+43 except o+4, o+8, ..., o+40,
		// whose relations feed back through the S-box instead.
		lin, step = append(lin[:0], 0), step[:0]
		for j, w := range decoded {
			fail := int32(0)
			if j >= 4 && w != decoded[j-4]^decoded[j-1] {
				fail = 1
			}
			lin = append(lin, lin[j]+fail)
			if j >= 4 {
				fail += step[j-4]
			}
			step = append(step, fail)
		}
		for off := 0; off+schedBytes <= int(n); off += 4 {
			o := off / 4
			// Random data breaks essentially every relation, so nearly every
			// window's linear failures alone blow the damage budget: skip it
			// in O(1).
			if lin[o+schedWords]-lin[o+4]-(step[o+40]-step[o]) > maxScheduleViolations {
				continue
			}
			words := decoded[o : o+schedWords]
			// The survivors get the exact count, with an early exit once the
			// damage budget is blown.
			bad := 0
			for i := 4; i < schedWords && bad <= maxScheduleViolations; i++ {
				if words[i] != words[i-4]^aes.ScheduleF(i, words[i-1]) {
					bad++
				}
			}
			if bad > maxScheduleViolations {
				continue
			}
			// All-zero windows inside otherwise-live pages hit the same
			// prefilter trap as zero pages; skip them for the same reason.
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
				continue // an all-zero "key" is decayed memory, not a hit
			}
			if !seen[k16] {
				seen[k16] = true
				keys = append(keys, key)
			}
		}
	}
	return keys
}
