package attack

import (
	"bytes"
	"fmt"

	"sentry/internal/aes"
	"sentry/internal/bus"
	"sentry/internal/mem"
	"sentry/internal/obs"
	"sentry/internal/soc"
)

// probeEvent records an attack probe in the device trace. The victim's own
// tracer logging the attack is not a fiction: it models the forensic view a
// defender gets when replaying a captured trace.
func probeEvent(s *soc.SoC, label string, arg uint64) {
	if s.Trace != nil {
		s.Trace.Emit(obs.Event{
			Cycle: s.Clock.Cycles(), Kind: obs.KindAttackProbe, Arg: arg, Label: label,
		})
	}
}

// AttachBusMonitor clips a probe onto the external memory bus and starts
// capturing. It fails with soc.ErrUnsupported on platforms whose DRAM is
// package-on-package stacked: there are no bus traces to attach to (the
// paper's Nexus 4 is such a device; its dev board is not).
func AttachBusMonitor(s *soc.SoC) (*BusMonitor, error) {
	if !s.Prof.ExposedBus {
		return nil, fmt.Errorf("attack: %s has no probeable memory bus: %w", s.Prof.Name, soc.ErrUnsupported)
	}
	m := &BusMonitor{}
	s.Bus.Attach(m)
	probeEvent(s, "bus-monitor", 0)
	return m, nil
}

// BusMonitor is a passive probe on the external memory bus (an EPN/
// FuturePlus-style DDR analyzer). It records every transaction and answers
// two questions: did secret *data* cross the bus, and what do the *access
// patterns* reveal?
type BusMonitor struct {
	txs []bus.Transaction
}

// Observe implements bus.Monitor. The capture outlives the call, so it
// keeps a copy of the payload.
func (m *BusMonitor) Observe(tx bus.Transaction) {
	tx.Data = bytes.Clone(tx.Data)
	m.txs = append(m.txs, tx)
}

// Transactions returns everything captured so far.
func (m *BusMonitor) Transactions() []bus.Transaction { return m.txs }

// Reset clears the capture buffer.
func (m *BusMonitor) Reset() { m.txs = nil }

// CapturedData reports whether the needle appeared in any transaction's
// payload (direct data capture).
func (m *BusMonitor) CapturedData(needle []byte) bool {
	for _, tx := range m.txs {
		if bytes.Index(tx.Data, needle) >= 0 {
			return true
		}
	}
	return false
}

// ReadsInRange returns the captured read addresses inside [base, base+size),
// in order.
func (m *BusMonitor) ReadsInRange(base mem.PhysAddr, size uint64) []mem.PhysAddr {
	var out []mem.PhysAddr
	for _, tx := range m.txs {
		if tx.Op == bus.Read && tx.Addr >= base && tx.Addr < base+mem.PhysAddr(size) {
			out = append(out, tx.Addr)
		}
	}
	return out
}

// KeyRecovery solves for an AES-128 key from observed first-round T-table
// lookups (the Tromer/Osvik/Shamir-class access-pattern attack, §3.1 "Bus
// Monitoring Attacks"). For a known plaintext block, the i-th first-round
// lookup is at table index plaintext[o]^key[o] (o = aes.FirstRoundOrder[i]),
// so each observed address yields the key byte directly — or, when the
// probe only sees cache-line fills, a set of 8 candidates that intersection
// over multiple blocks collapses to one.
type KeyRecovery struct {
	arenaBase mem.PhysAddr
	// candidates[b] is the remaining candidate set for key byte b.
	candidates [16]map[byte]bool
}

// NewKeyRecovery returns a solver for a cipher whose arena starts at base.
func NewKeyRecovery(base mem.PhysAddr) *KeyRecovery {
	k := &KeyRecovery{arenaBase: base}
	for i := range k.candidates {
		k.candidates[i] = nil // nil = unconstrained
	}
	return k
}

// teIndexRange converts an observed read address into the inclusive range
// of table indices it may correspond to: exact for a 4-byte word read,
// 8-wide for a 32-byte line fill.
func (k *KeyRecovery) teIndexRange(addr mem.PhysAddr, width int) (lo, hi int, ok bool) {
	teBase := k.arenaBase + aes.TeOffset
	if addr < teBase || addr >= teBase+1024 {
		return 0, 0, false
	}
	off := int(addr - teBase)
	lo = off / 4
	hi = lo + (width+3)/4 - 1
	if hi > 255 {
		hi = 255
	}
	return lo, hi, true
}

// AddBlock feeds one known-plaintext block and the first-round T-table read
// addresses observed while it was encrypted (width is the per-transaction
// transfer size: 4 for an uncached probe, 32 for line fills). Only the
// first 16 in-range reads are the first round; callers pass exactly those.
func (k *KeyRecovery) AddBlock(plaintext []byte, reads []mem.PhysAddr, width int) error {
	if len(plaintext) != 16 {
		return fmt.Errorf("attack: plaintext block must be 16 bytes")
	}
	if len(reads) < 16 {
		return fmt.Errorf("attack: need 16 first-round lookups, got %d", len(reads))
	}
	for i := 0; i < 16; i++ {
		lo, hi, ok := k.teIndexRange(reads[i], width)
		if !ok {
			return fmt.Errorf("attack: read %d (%#x) outside the T-table", i, uint64(reads[i]))
		}
		pos := aes.FirstRoundOrder[i]
		set := make(map[byte]bool, hi-lo+1)
		for idx := lo; idx <= hi; idx++ {
			set[plaintext[pos]^byte(idx)] = true
		}
		if k.candidates[pos] == nil {
			k.candidates[pos] = set
			continue
		}
		for b := range k.candidates[pos] {
			if !set[b] {
				delete(k.candidates[pos], b)
			}
		}
	}
	return nil
}

// Key returns the recovered key once every byte's candidate set is a
// singleton.
func (k *KeyRecovery) Key() ([]byte, bool) {
	key := make([]byte, 16)
	for i, set := range k.candidates {
		if len(set) != 1 {
			return nil, false
		}
		for b := range set {
			key[i] = b
		}
	}
	return key, true
}

// CandidatesLeft reports the product-space size still standing (log-ish
// progress metric for the harness).
func (k *KeyRecovery) CandidatesLeft() int {
	total := 0
	for _, set := range k.candidates {
		if set == nil {
			total += 256
		} else {
			total += len(set)
		}
	}
	return total
}

// BlockOracle encrypts one attacker-chosen plaintext block from a cold
// cache (the OS flushes the L2 on every suspend, giving the attacker a
// fresh observation window) and returns the T-table line-fill addresses the
// probe captured, in order.
type BlockOracle func(plaintext []byte) []mem.PhysAddr

// LineBitsPerByte is how many bits of each key byte a line-granular probe
// recovers from first-round lookups: a 32-byte line spans 8 table entries,
// so the low log2(8) = 3 index bits are invisible and the top 5 bits leak.
// This is the classic one-round limit (Osvik–Shamir); 16 × 5 = 80 of the
// 128 key bits leak, leaving a 2^48 brute-force — a broken cipher.
const LineBitsPerByte = 5

// lineMask keeps the bits of a key byte a line observation determines.
const lineMask = 0xF8

// RecoverKeyBitsCachedArena mounts the chosen-plaintext access-pattern
// attack against a *cached* AES arena, where the probe sees only 32-byte
// line fills and only on misses:
//
//  1. The very first fill of a cold encryption is always the first lookup
//     (index plaintext[0]^key[0]), whose line reveals the top 5 bits of
//     key[0].
//  2. For each later first-round lookup i, craft plaintexts that force
//     every already-solved lookup to a table index congruent to its own
//     (known-high-bits) line-0 slot; the second fill is then lookup i's
//     line whenever it falls outside that line (31/32 of trials), and
//     majority voting pins the byte's top 5 bits.
//
// It returns the partial key (unknown low bits zero) and a mask with a set
// bit for every recovered key bit position.
func RecoverKeyBitsCachedArena(oracle BlockOracle, arenaBase mem.PhysAddr, lineSize, trials int, rng interface{ Read([]byte) (int, error) }) (partial []byte, mask []byte, err error) {
	if trials < 4 {
		trials = 8
	}
	teBase := arenaBase + aes.TeOffset
	entriesPerLine := lineSize / 4
	lineOf := func(addr mem.PhysAddr) (int, bool) {
		if addr < teBase || addr >= teBase+1024 {
			return 0, false
		}
		return int(addr-teBase) / lineSize, true
	}
	// hiFromLine inverts index = p ^ k on the line-determined bits.
	hiFromLine := func(line int, p byte) byte {
		return (byte(line*entriesPerLine) ^ p) & lineMask
	}

	key := make([]byte, 16)
	order := aes.FirstRoundOrder

	// Stage 1: top bits of key[0] from the guaranteed-first fill; repeat a
	// few times as a consistency check.
	var have bool
	for t := 0; t < trials; t++ {
		p := make([]byte, 16)
		rng.Read(p)
		fills := oracle(p)
		if len(fills) == 0 {
			return nil, nil, fmt.Errorf("attack: no table fills observed — is the arena actually cached DRAM?")
		}
		line, ok := lineOf(fills[0])
		if !ok {
			return nil, nil, fmt.Errorf("attack: first fill outside the T-table")
		}
		hi := hiFromLine(line, p[0])
		if have && hi != key[0] {
			return nil, nil, fmt.Errorf("attack: inconsistent observations for key[0]")
		}
		key[0], have = hi, true
	}

	// Stage 2: remaining first-round positions in lookup order. Forcing
	// p[pos_j] = key[pos_j] sends every solved lookup to the line holding
	// its index's high bits with low bits zero — i.e. the solved lookups
	// collectively touch only "their" line 0-slot lines, all identical to
	// line key-hi>>3... to keep them on ONE line we aim each at index 0 by
	// xoring with the known high bits.
	for i := 1; i < 16; i++ {
		pos := order[i]
		votes := map[byte]int{}
		for t := 0; t < trials; t++ {
			p := make([]byte, 16)
			rng.Read(p)
			for j := 0; j < i; j++ {
				// index = p ^ key has high bits 0 → line 0 for all solved
				// lookups (their unknown low bits stay within line 0).
				p[order[j]] = key[order[j]]
			}
			fills := oracle(p)
			if len(fills) < 2 {
				continue // lookup i landed in line 0 too; retry
			}
			line, ok := lineOf(fills[1])
			if !ok {
				continue
			}
			votes[hiFromLine(line, p[pos])]++
		}
		best, bestVotes, second := byte(0), 0, 0
		for b, v := range votes {
			switch {
			case v > bestVotes:
				best, bestVotes, second = b, v, bestVotes
			case v > second:
				second = v
			}
		}
		if bestVotes == 0 || bestVotes == second {
			return nil, nil, fmt.Errorf("attack: byte %d ambiguous (best %d vs %d votes)", pos, bestVotes, second)
		}
		key[pos] = best
	}
	mask = make([]byte, 16)
	for i := range mask {
		mask[i] = lineMask
	}
	return key, mask, nil
}
