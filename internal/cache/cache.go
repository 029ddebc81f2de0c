// Package cache models the shared L2 cache of a Cortex-A9 class SoC managed
// by a PL310-style controller. It implements the three behaviours Sentry
// depends on:
//
//   - Lockdown by way: ways can be excluded from allocation, so lines already
//     resident in an excluded ("locked") way remain hittable but are never
//     evicted or written back until the way is unlocked. This is the paper's
//     §4.2/§4.5 mechanism for pinning plaintext on the SoC.
//   - Maskable maintenance: clean/invalidate operations take a way mask, so
//     an OS can flush "the whole cache" while skipping locked ways — the
//     Linux change the paper describes (428 → 676 lines in their port).
//   - DMA bypass: DMA engines transfer against DRAM directly (package dma),
//     never through this cache, so locked plaintext is invisible to DMA.
//
// The cache is physically indexed and tagged, write-back, write-allocate,
// with round-robin victim selection among allocation-enabled ways. When no
// way in a set is allocation-enabled, accesses bypass the cache and go to
// DRAM uncached — matching the PL310's behaviour when software locks every
// way.
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"sentry/internal/bus"
	"sentry/internal/mem"
	"sentry/internal/obs"
	"sentry/internal/sim"
)

// Config sizes the cache geometry and selects behavioural variants.
type Config struct {
	Ways     int // associativity (PL310: up to 16; Tegra 3 uses 8)
	WaySize  int // bytes per way (Tegra 3: 128 KB)
	LineSize int // bytes per line (PL310: 32)

	// AutoLock models the inclusive-L2 behaviour Green et al. describe
	// (AutoLock, PAPERS.md): a line held in another core's L1 is
	// transparently locked in L2 — a different core cannot evict it. Each
	// line tracks a holder bitmask of the masters that touched it since its
	// fill; pickVictim skips ways whose line is cross-held, and an access
	// that finds no evictable way bypasses to DRAM.
	AutoLock bool

	// RandomizedIndex enables a keyed set-index permutation (the
	// randomized-cache defence variant, PAPERS.md): the set for a line is
	// its base index XORed with a keyed hash of the tag, re-keyed per boot
	// via SetIndexKey. Congruence — which addresses contend for a set —
	// becomes secret, defeating eviction-set construction.
	RandomizedIndex bool
}

// Tegra3Config is the 1 MB, 8-way, 32 B/line geometry of the Tegra 3 board.
var Tegra3Config = Config{Ways: 8, WaySize: 128 * 1024, LineSize: 32}

// Stats counts cache events since the last reset.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	WriteBacks uint64
	Bypasses   uint64 // accesses that went uncached because no way could allocate
}

// chunkSets is the number of consecutive sets one copy-on-write chunk
// holds. Fork-heavy workloads measured alike at 8, 16 and 32 sets per chunk
// and slower at 64.
const chunkSets = 16

// chunk is the unit of copy-on-write sharing between a cache and its
// clones: the line metadata, valid masks, victim pointers and line contents
// of chunkSets consecutive sets. A chunk reachable from more than one cache
// is immutable; wchunk copies it before the first write. A nil chunk holds
// no valid line and zero victim pointers.
//
// Per-line arrays are indexed [set][way] within the chunk (see slot). The
// tags are dense, so a lookup scans one host cache line per set. An
// invalid line's tag, holder and contents are stale and never read; its
// dirty bit is clear.
type chunk struct {
	valid  [chunkSets]uint32 // per-set bitmask of ways holding a valid line
	dirty  [chunkSets]uint32 // per-set bitmask of ways holding a dirty line
	victim [chunkSets]uint8  // per-set round-robin pointer
	tags   []uint64
	// holder is the bitmask of masters (cores) that touched each line since
	// its fill — the AutoLock "held in some L1" approximation. Only
	// maintained when Config.AutoLock is set.
	holder []uint8
	data   []byte // line contents, LineSize bytes per line
}

// L2 is the second-level cache. It is not safe for concurrent use; the
// simulated platform is single-threaded by design.
type L2 struct {
	cfg    Config
	sets   int
	clock  *sim.Clock
	meter  *sim.Meter
	costs  *sim.CostTable
	energy *sim.EnergyTable
	bus    *bus.Bus

	// Geometry is power-of-two, so set/tag extraction is shift-and-mask —
	// index() runs on every access and must not divide.
	lineShift uint
	setShift  uint
	setMask   uint64
	offMask   uint64

	// chunks holds the sets, chunkSets to an entry. Entries may be shared
	// with other caches: read through chunkOf, write through wchunk.
	// owned[i] marks chunks[i] as private to this cache, so it may be
	// written in place. Clone copies the table and clears owned on both
	// sides, which makes a clone cost O(sets/chunkSets) pointers, and each
	// side copies a chunk the first time it writes to it.
	chunks []*chunk
	owned  []bool
	// validCount[w] is the number of valid lines way w holds — the sum of
	// the valid-mask bit w over all sets. Maintenance walks consult it to
	// skip empty ways outright and to stop a walk once every valid line has
	// been visited: campaign workloads keep most ways nearly empty, so the
	// full Ways×Sets sweep is almost always cut short.
	validCount []int
	allocMask  uint32 // bit w set => way w may allocate new lines
	stats      Stats

	// master is the core id charged with subsequent accesses (AutoLock
	// holder tracking). The simulated platform is single-threaded, so this
	// is a mode switch, not a concurrency hazard; core 0 is the victim
	// system, attack drivers run as core 1.
	master uint8
	// indexKey keys the randomized index permutation (Config.RandomizedIndex);
	// re-drawn per boot by the SoC layer via SetIndexKey.
	indexKey uint64

	// Observability: nil (and nil-safe) until SetObs wires them.
	trace       *obs.Tracer
	ctrHits     *obs.Counter
	ctrMisses   *obs.Counter
	ctrBypasses *obs.Counter
	ctrWBs      *obs.Counter
	gaugeLocked *obs.Gauge

	// faults is nil unless a fault injector is attached; only the
	// maintenance entry points consult it, never the access fast path.
	faults FaultInjector

	// frozen marks a cache that FreezeShared pinned read-only: it owns no
	// chunk, so Clone skips clearing its owned table and concurrent
	// Clone/Deflate against it are safe.
	frozen bool
	// defl, when non-nil, means the cache has been re-encoded as a delta
	// against a frozen base (Deflate): the chunk table is dropped and the
	// only legal operation is Clone, which inflates.
	defl *l2Delta
}

// FaultInjector perturbs cache-maintenance operations. DropMaint is
// consulted once at the entry of each kernel-reachable maintenance
// operation (op names: "clean-ways", "invalidate-ways", "clean-range",
// "invalidate-range"); returning true silently drops the whole operation
// (a glitched controller command). Implementations may instead panic to
// model power loss at that point — no part of the operation has run yet.
type FaultInjector interface {
	DropMaint(op string) bool
}

// New returns an L2 of the given geometry in front of the given bus. It
// starts empty: every chunk is nil until a fill writes to it.
func New(cfg Config, clock *sim.Clock, meter *sim.Meter, costs *sim.CostTable, energy *sim.EnergyTable, b *bus.Bus) *L2 {
	if cfg.Ways <= 0 || cfg.Ways > 32 {
		panic(fmt.Sprintf("cache: unsupported way count %d", cfg.Ways))
	}
	if cfg.WaySize%cfg.LineSize != 0 {
		panic("cache: way size must be a multiple of line size")
	}
	sets := cfg.WaySize / cfg.LineSize
	if bits.OnesCount(uint(cfg.LineSize)) != 1 || bits.OnesCount(uint(sets)) != 1 {
		panic("cache: line size and set count must be powers of two")
	}
	nchunks := (sets + chunkSets - 1) / chunkSets
	return &L2{
		cfg: cfg, sets: sets,
		clock: clock, meter: meter, costs: costs, energy: energy, bus: b,
		lineShift:  uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setShift:   uint(bits.TrailingZeros(uint(sets))),
		setMask:    uint64(sets - 1),
		offMask:    uint64(cfg.LineSize - 1),
		chunks:     make([]*chunk, nchunks),
		owned:      make([]bool, nchunks),
		validCount: make([]int, cfg.Ways),
		allocMask:  (1 << cfg.Ways) - 1,
	}
}

// chunkOf returns the chunk holding set, for reading only. nil means the
// set holds no valid line.
func (c *L2) chunkOf(set int) *chunk { return c.chunks[uint(set)/chunkSets] }

// wchunk returns the chunk holding set, private to this cache and safe to
// write: a nil chunk is allocated, and a shared one is copied first.
func (c *L2) wchunk(set int) *chunk {
	i := uint(set) / chunkSets
	if c.owned[i] {
		return c.chunks[i]
	}
	return c.unshare(i)
}

// unshare is wchunk's slow path: it installs a private copy of chunk i.
func (c *L2) unshare(i uint) *chunk {
	k := &chunk{}
	if old := c.chunks[i]; old != nil {
		*k = *old
		k.tags = slices.Clone(old.tags)
		k.holder = slices.Clone(old.holder)
		k.data = slices.Clone(old.data)
	} else {
		n := chunkSets * c.cfg.Ways
		k.tags = make([]uint64, n)
		k.holder = make([]uint8, n)
		k.data = make([]byte, n*c.cfg.LineSize)
	}
	c.chunks[i], c.owned[i] = k, true
	return k
}

// slot returns the index of (set, way) within its chunk's per-line arrays.
func (c *L2) slot(set, way int) int { return (set&(chunkSets-1))*c.cfg.Ways + way }

// lineData returns the contents of line i of chunk k.
func (c *L2) lineData(k *chunk, i int) []byte {
	off := i * c.cfg.LineSize
	return k.data[off : off+c.cfg.LineSize : off+c.cfg.LineSize]
}

// Config returns the cache geometry.
func (c *L2) Config() Config { return c.cfg }

// Sets returns the number of sets per way.
func (c *L2) Sets() int { return c.sets }

// SizeBytes returns the total cache capacity.
func (c *L2) SizeBytes() int { return c.cfg.Ways * c.cfg.WaySize }

// Stats returns a snapshot of the event counters.
func (c *L2) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters.
func (c *L2) ResetStats() { c.stats = Stats{} }

// SetFaults attaches (or, with nil, detaches) a fault injector.
func (c *L2) SetFaults(f FaultInjector) { c.faults = f }

// SetObs wires the observability layer. Either argument may be nil.
func (c *L2) SetObs(tr *obs.Tracer, reg *obs.Registry) {
	c.trace = tr
	c.ctrHits = reg.Counter("cache.hits")
	c.ctrMisses = reg.Counter("cache.misses")
	c.ctrBypasses = reg.Counter("cache.bypasses")
	c.ctrWBs = reg.Counter("cache.writebacks")
	c.gaugeLocked = reg.Gauge("cache.locked_ways")
	c.gaugeLocked.Set(int64(c.lockedWays()))
}

// lockedWays counts ways currently excluded from allocation.
func (c *L2) lockedWays() int {
	return c.cfg.Ways - bits.OnesCount32(c.allocMask)
}

// AllocMask returns the current allocation-enable mask. Bit w set means way
// w accepts new allocations; a clear bit is a "locked" way in the paper's
// terminology (its resident lines are pinned).
func (c *L2) AllocMask() uint32 { return c.allocMask }

// SetAllocMask programs the lockdown register. This is a secure-world-only
// operation on real hardware; the tz package enforces that, this method is
// the raw controller interface.
func (c *L2) SetAllocMask(mask uint32) {
	old := c.allocMask
	c.allocMask = mask & ((1 << c.cfg.Ways) - 1)
	if c.trace != nil && old != c.allocMask {
		// One event per way whose lockdown state flipped: a newly cleared
		// alloc bit is a lock, a newly set bit an unlock.
		cyc := c.clock.Cycles()
		for w := 0; w < c.cfg.Ways; w++ {
			bit := uint32(1) << w
			switch {
			case old&bit != 0 && c.allocMask&bit == 0:
				c.trace.Emit(obs.Event{Cycle: cyc, Kind: obs.KindCacheLock, Size: uint64(w), Arg: uint64(c.allocMask)})
			case old&bit == 0 && c.allocMask&bit != 0:
				c.trace.Emit(obs.Event{Cycle: cyc, Kind: obs.KindCacheUnlock, Size: uint64(w), Arg: uint64(c.allocMask)})
			}
		}
	}
	c.gaugeLocked.Set(int64(c.lockedWays()))
}

// SetMaster selects the core id charged with subsequent accesses. Only
// meaningful under Config.AutoLock, where it decides which holder bit an
// access sets and which holders block eviction. The victim system is core 0
// (the default); attack drivers switch to core 1 around their accesses.
func (c *L2) SetMaster(core int) { c.master = uint8(core) }

// Master returns the current accessing core id.
func (c *L2) Master() int { return int(c.master) }

// SetIndexKey keys the randomized index permutation and enables it. Only
// legal on an empty cache (the key changes where every line lives): the SoC
// layer calls it at cold boot and after every power cycle, right after the
// controller reset.
func (c *L2) SetIndexKey(key uint64) {
	for _, n := range c.validCount {
		if n != 0 {
			panic("cache: SetIndexKey on a non-empty cache")
		}
	}
	c.indexKey = key
	c.cfg.RandomizedIndex = true
}

// SetIndex returns the set index addr maps to under the current index
// function (including the randomized permutation when enabled). Test and
// attack-driver instrumentation.
func (c *L2) SetIndex(addr mem.PhysAddr) int {
	set, _ := c.index(addr)
	return set
}

// mix64 is the splitmix64 finalizer — a cheap invertible mixer used to key
// the randomized index permutation.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// scrambleSet applies the keyed index permutation for tag. XOR with a
// per-tag hash is self-inverse, so the same function maps base→scrambled in
// index() and scrambled→base in lineBase().
func (c *L2) scrambleSet(set int, tag uint64) int {
	return set ^ int(mix64(tag^c.indexKey)&c.setMask)
}

func (c *L2) index(addr mem.PhysAddr) (set int, tag uint64) {
	lineN := uint64(addr) >> c.lineShift
	set = int(lineN & c.setMask)
	tag = lineN >> c.setShift
	if c.cfg.RandomizedIndex {
		set = c.scrambleSet(set, tag)
	}
	return set, tag
}

// lookup returns the chunk holding set (for reading; nil if empty) and
// the way holding (set, tag), or -1. Only the ways the set's valid mask
// names are compared: an invalidated line keeps its stale tag.
func (c *L2) lookup(set int, tag uint64) (*chunk, int) {
	k := c.chunkOf(set)
	if k == nil {
		return nil, -1
	}
	row := k.tags[c.slot(set, 0):]
	for vm := k.valid[set&(chunkSets-1)]; vm != 0; vm &= vm - 1 {
		if w := bits.TrailingZeros32(vm); row[w] == tag {
			return k, w
		}
	}
	return k, -1
}

// pickVictim chooses an allocation-enabled way in set, whose chunk is k,
// preferring invalid lines, else round-robin. Returns -1 if no way may
// allocate.
func (c *L2) pickVictim(set int, k *chunk) int {
	if c.allocMask == 0 {
		return -1
	}
	var vm uint32
	if k != nil {
		vm = k.valid[set&(chunkSets-1)]
	}
	// Lowest allocation-enabled way without a valid line, if any — one mask
	// op instead of a scan across the ways.
	if inv := c.allocMask &^ vm; inv != 0 {
		return bits.TrailingZeros32(inv)
	}
	// Every allocation-enabled way holds a valid line, so k is not nil.
	avail := c.allocMask
	if c.cfg.AutoLock {
		// AutoLock: a valid line held in another core's L1 is transparently
		// locked — the current master may not evict it.
		other := ^(uint8(1) << c.master)
		row := k.holder[c.slot(set, 0):]
		for w := 0; w < c.cfg.Ways; w++ {
			if avail&(1<<w) != 0 && row[w]&other != 0 {
				avail &^= 1 << w
			}
		}
		if avail == 0 {
			return -1
		}
	}
	// Round-robin: the first available way at or after the pointer, found
	// by rotating the mask instead of scanning way by way.
	ways := c.cfg.Ways
	start := int(k.victim[set&(chunkSets-1)])
	full := uint32(1)<<ways - 1
	rot := (avail >> start) | (avail << (ways - start))
	w := start + bits.TrailingZeros32(rot&full)
	if w >= ways {
		w -= ways
	}
	next := w + 1
	if next == ways {
		next = 0
	}
	c.wchunk(set).victim[set&(chunkSets-1)] = uint8(next)
	return w
}

func (c *L2) lineBase(set int, tag uint64) mem.PhysAddr {
	if c.cfg.RandomizedIndex {
		set = c.scrambleSet(set, tag) // XOR permutation is self-inverse
	}
	return mem.PhysAddr((tag*uint64(c.sets) + uint64(set)) * uint64(c.cfg.LineSize))
}

// writeBack cleans one line to DRAM over the bus. Callers pass a set
// holding at least one valid line, so its chunk is never nil.
func (c *L2) writeBack(set, way int) {
	k, i := c.chunkOf(set), c.slot(set, way)
	if k.dirty[set&(chunkSets-1)]&(1<<way) == 0 {
		return
	}
	c.bus.WriteFrom("l2", c.lineBase(set, k.tags[i]), c.lineData(k, i))
	c.wchunk(set).dirty[set&(chunkSets-1)] &^= 1 << way
	c.stats.WriteBacks++
	c.ctrWBs.Inc()
}

// fill allocates (set,way) with the line containing addr, evicting as
// needed, and returns the set's now private chunk.
func (c *L2) fill(set, way int, tag uint64) *chunk {
	bit := uint32(1) << way
	if k := c.chunkOf(set); k != nil && k.valid[set&(chunkSets-1)]&bit != 0 {
		c.stats.Evictions++
		c.writeBack(set, way)
	}
	k, i, j := c.wchunk(set), c.slot(set, way), set&(chunkSets-1)
	if k.valid[j]&bit == 0 {
		k.valid[j] |= bit
		c.validCount[way]++
	}
	// A refill replaces the previous occupant's flags and holders; the bus
	// read overwrites the whole line.
	k.dirty[j] &^= bit
	k.tags[i], k.holder[i] = tag, 0
	c.bus.ReadInto("l2", c.lineBase(set, tag), c.lineData(k, i))
	return k
}

func (c *L2) chargeHit(nbytes int) {
	words := uint64((nbytes + 3) / 4)
	c.clock.Advance(words * c.costs.L2Hit)
	c.meter.Charge(float64(words) * c.energy.L2HitPJ)
}

// access performs one within-line cacheable access.
func (c *L2) access(addr mem.PhysAddr, buf []byte, isWrite bool) {
	set, tag := c.index(addr)
	k, way := c.lookup(set, tag)
	if way < 0 {
		victim := c.pickVictim(set, k)
		if victim < 0 {
			// Every way locked: the controller bypasses to DRAM with
			// single-beat transactions (no burst amortisation).
			c.stats.Bypasses++
			c.ctrBypasses.Inc()
			c.clock.Advance(c.costs.BypassPenalty)
			if isWrite {
				c.bus.WriteFrom("cpu-uncached", addr, buf)
			} else {
				c.bus.ReadInto("cpu-uncached", addr, buf)
			}
			return
		}
		c.stats.Misses++
		c.ctrMisses.Inc()
		k = c.fill(set, victim, tag)
		way = victim
	} else {
		c.stats.Hits++
		c.ctrHits.Inc()
	}
	i := c.slot(set, way)
	if c.cfg.AutoLock && k.holder[i]&(1<<c.master) == 0 {
		k = c.wchunk(set)
		k.holder[i] |= 1 << c.master
	}
	off := int(uint64(addr) & c.offMask)
	if isWrite {
		k = c.wchunk(set)
		copy(c.lineData(k, i)[off:], buf)
		k.dirty[set&(chunkSets-1)] |= 1 << way
	} else {
		copy(buf, c.lineData(k, i)[off:off+len(buf)])
	}
	c.chargeHit(len(buf))
}

// splitByLine runs fn once per line-sized fragment of [addr, addr+len(b)).
func (c *L2) splitByLine(addr mem.PhysAddr, b []byte, fn func(a mem.PhysAddr, frag []byte)) {
	for len(b) > 0 {
		off := int(uint64(addr) & c.offMask)
		n := c.cfg.LineSize - off
		if n > len(b) {
			n = len(b)
		}
		fn(addr, b[:n])
		addr += mem.PhysAddr(n)
		b = b[n:]
	}
}

// ReadBytes is the burst read path: it moves one cache line per step with a
// plain loop (no per-fragment closure dispatch), charging exactly the same
// hits, misses, bypasses, write-backs, and bus transactions as a sequence of
// per-word accesses over the same range — the trace-bus experiment and
// TestTraceSumsEqualStats cross-check that equivalence.
func (c *L2) ReadBytes(addr mem.PhysAddr, dst []byte) {
	for len(dst) > 0 {
		n := c.cfg.LineSize - int(uint64(addr)&c.offMask)
		if n > len(dst) {
			n = len(dst)
		}
		c.access(addr, dst[:n], false)
		addr += mem.PhysAddr(n)
		dst = dst[n:]
	}
}

// WriteBytes is the burst write twin of ReadBytes.
func (c *L2) WriteBytes(addr mem.PhysAddr, src []byte) {
	for len(src) > 0 {
		n := c.cfg.LineSize - int(uint64(addr)&c.offMask)
		if n > len(src) {
			n = len(src)
		}
		c.access(addr, src[:n], true)
		addr += mem.PhysAddr(n)
		src = src[n:]
	}
}

// Read performs a cacheable read of len(dst) bytes at addr.
func (c *L2) Read(addr mem.PhysAddr, dst []byte) { c.ReadBytes(addr, dst) }

// Write performs a cacheable write of src at addr.
func (c *L2) Write(addr mem.PhysAddr, src []byte) { c.WriteBytes(addr, src) }

// CleanWays writes back every dirty line in the ways selected by mask,
// leaving them valid.
func (c *L2) CleanWays(mask uint32) {
	if f := c.faults; f != nil && f.DropMaint("clean-ways") {
		return
	}
	// The walk reads the chunks' valid masks instead of every line, skips
	// empty chunks whole, and stops once every valid line of the way has
	// been visited. The visit order (way-outer, set-inner) is fixed: the
	// energy meter is an order-sensitive float accumulator, so reordering
	// write-backs would shift recorded results. writeBack touches no valid
	// mask, so the masks read here stay current while it copies chunks.
	for w := 0; w < c.cfg.Ways; w++ {
		bit := uint32(1) << w
		if mask&bit == 0 {
			continue
		}
		left := c.validCount[w]
		for ci := 0; ci < len(c.chunks) && left > 0; ci++ {
			k := c.chunks[ci]
			if k == nil {
				continue
			}
			for j := 0; j < chunkSets && left > 0; j++ {
				if k.valid[j]&bit != 0 {
					c.writeBack(ci*chunkSets+j, w)
					left--
				}
			}
		}
	}
}

// InvalidateWays drops every line in the selected ways without writing
// anything back. Dirty data is lost — this is the dangerous half of cache
// maintenance, and also how the firmware resets the cache at boot.
func (c *L2) InvalidateWays(mask uint32) {
	if f := c.faults; f != nil && f.DropMaint("invalidate-ways") {
		return
	}
	c.invalidateWays(mask)
}

// invalidateWays drops the selected ways' valid lines by clearing their
// valid and dirty bits: only valid lines are ever read, so nothing needs
// zeroing, and empty chunks are skipped whole. The next fill overwrites the
// line.
func (c *L2) invalidateWays(mask uint32) {
	for ci, k := range c.chunks {
		if k == nil {
			continue
		}
		hit := false
		for _, vm := range k.valid {
			hit = hit || vm&mask != 0
		}
		if !hit {
			continue
		}
		k = c.wchunk(ci * chunkSets)
		for j, vm := range k.valid {
			for drop := vm & mask; drop != 0; drop &= drop - 1 {
				c.validCount[bits.TrailingZeros32(drop)]--
			}
			k.valid[j] = vm &^ mask
			k.dirty[j] &^= mask
		}
	}
}

// Reset models the cache losing power: every line, every tag, and the
// lockdown register are physically lost, with nothing written back. Unlike
// the maintenance operations this is not a controller command an attacker
// could glitch — de-powered SRAM simply forgets — so it bypasses any
// attached fault injector.
func (c *L2) Reset() {
	c.SetAllocMask(c.AllWaysMask())
	c.invalidateWays(c.AllWaysMask())
}

// CleanInvalidateWays cleans then invalidates the selected ways. Calling it
// with a mask that includes a locked way WILL push that way's plaintext to
// DRAM — exactly the hazard the paper's kernel change guards against; the
// kernel package is responsible for masking locked ways out.
func (c *L2) CleanInvalidateWays(mask uint32) {
	c.CleanWays(mask)
	c.InvalidateWays(mask)
}

// AllWaysMask returns the mask selecting every way.
func (c *L2) AllWaysMask() uint32 { return (1 << c.cfg.Ways) - 1 }

// InvalidateRange drops every line overlapping [addr, addr+n) in any way,
// without write-back — the PL310's "invalidate by PA" operation. The
// kernel's zeroing thread uses it to discard stale plaintext lines after
// clearing a freed frame.
func (c *L2) InvalidateRange(addr mem.PhysAddr, n int) {
	if f := c.faults; f != nil && f.DropMaint("invalidate-range") {
		return
	}
	first := uint64(addr) / uint64(c.cfg.LineSize)
	last := (uint64(addr) + uint64(n) - 1) / uint64(c.cfg.LineSize)
	for ln := first; ln <= last; ln++ {
		// Route through index() so "by PA" maintenance finds the line under
		// the randomized index permutation too.
		set, tag := c.index(mem.PhysAddr(ln << c.lineShift))
		if _, w := c.lookup(set, tag); w >= 0 {
			k, j := c.wchunk(set), set&(chunkSets-1)
			k.valid[j] &^= 1 << w
			k.dirty[j] &^= 1 << w
			c.validCount[w]--
		}
	}
}

// CleanRange writes back any dirty lines overlapping [addr, addr+n) —
// "clean by PA", the operation drivers use before starting a DMA read.
func (c *L2) CleanRange(addr mem.PhysAddr, n int) {
	if f := c.faults; f != nil && f.DropMaint("clean-range") {
		return
	}
	first := uint64(addr) / uint64(c.cfg.LineSize)
	last := (uint64(addr) + uint64(n) - 1) / uint64(c.cfg.LineSize)
	for ln := first; ln <= last; ln++ {
		set, tag := c.index(mem.PhysAddr(ln << c.lineShift))
		if _, w := c.lookup(set, tag); w >= 0 {
			c.writeBack(set, w)
		}
	}
}

// Probe reports, without side effects or timing charges, whether addr is
// resident, and if so in which way and whether dirty. Test instrumentation.
func (c *L2) Probe(addr mem.PhysAddr) (hit bool, way int, dirty bool) {
	set, tag := c.index(addr)
	k, w := c.lookup(set, tag)
	if w < 0 {
		return false, -1, false
	}
	return true, w, k.dirty[set&(chunkSets-1)]&(1<<w) != 0
}

// Snoop copies the cached bytes for addr into dst without timing charges or
// allocation, returning false if the line is not resident. Used by tests and
// by the confidentiality scanner, which must observe cache contents without
// perturbing them.
func (c *L2) Snoop(addr mem.PhysAddr, dst []byte) bool {
	ok := true
	c.splitByLine(addr, dst, func(a mem.PhysAddr, frag []byte) {
		set, tag := c.index(a)
		k, w := c.lookup(set, tag)
		if w < 0 {
			ok = false
			return
		}
		off := int(uint64(a) & c.offMask)
		copy(frag, c.lineData(k, c.slot(set, w))[off:off+len(frag)])
	})
	return ok
}

// Clone returns an independent copy of the cache — geometry, lockdown
// register, victim pointers, stats, and every valid line's contents — wired
// to the given clock, meter, and bus. The clone copies the chunk table, not
// the chunks: both sides share every chunk, and whichever side first writes
// to one takes a private copy (wchunk). Clone therefore costs one pointer
// per chunkSets sets, whatever the cache holds. Observability and fault
// wiring are left to the caller: a cloned world re-runs SetObs/SetFaults
// against its own registry and injector.
func (c *L2) Clone(clock *sim.Clock, meter *sim.Meter, b *bus.Bus) *L2 {
	if c.defl != nil {
		return c.inflate(clock, meter, b)
	}
	// The parent gives up ownership of its chunks, which are now shared. A
	// frozen cache owns none and must not be written (clones may be taken
	// from it concurrently).
	if !c.frozen {
		clear(c.owned)
	}
	n := New(c.cfg, clock, meter, c.costs, c.energy, b)
	copy(n.chunks, c.chunks)
	copy(n.validCount, c.validCount)
	n.allocMask = c.allocMask
	n.stats = c.stats
	n.master = c.master
	n.indexKey = c.indexKey
	return n
}

// ValidLines returns the number of valid lines currently held in way w.
func (c *L2) ValidLines(w int) int { return c.validCount[w] }

// FreezeShared pins the cache read-only for cloning: it gives up ownership
// of every chunk, so Clone and Deflate against this cache never write to it
// again and may run concurrently. The caller promises the cache will never
// be accessed or maintained after the freeze — it exists to serve as the
// immutable base of a fork/delta population (the fleet's shared boot
// world). Idempotent.
func (c *L2) FreezeShared() {
	clear(c.owned)
	c.frozen = true
}

// l2Delta is a cache re-encoded against a frozen base: the sparse set of
// line positions whose (tag, flags, contents) differ from the base, packed
// line data for the valid ones, sparse victim-pointer diffs, and the scalar
// registers. ~48 bytes per diverged line instead of a chunk per touched
// group of sets.
type l2Delta struct {
	base       *L2
	recs       []deltaLine
	data       []byte // packed line contents; valid recs consume LineSize each, in order
	victimSets []int32
	victimVals []uint8
	allocMask  uint32
	stats      Stats
	master     uint8
	indexKey   uint64
	randomized bool
}

// deltaLine is one diverged line position. valid=false records a line the
// base holds but this cache does not (inflate must invalidate it).
type deltaLine struct {
	set    int32
	way    uint8
	valid  bool
	dirty  bool
	holder uint8
	tag    uint64
}

// Deflate re-encodes the cache as a delta against base, dropping its chunk
// table. base must be frozen (FreezeShared) and share this cache's
// geometry. Chunks still shared with the base are skipped whole; the rest
// are compared line by line. After Deflate the only legal operation is
// Clone, which reconstructs a dense, fully independent cache from
// base+delta. It returns an estimate of the bytes the delta retains, the
// cache's marginal cost over the shared base.
func (c *L2) Deflate(base *L2) int64 {
	if c.defl != nil {
		panic("cache: Deflate on an already-deflated cache")
	}
	if !base.frozen {
		panic("cache: Deflate against an unfrozen base (FreezeShared it first)")
	}
	if c.cfg.Ways != base.cfg.Ways || c.cfg.WaySize != base.cfg.WaySize || c.cfg.LineSize != base.cfg.LineSize {
		panic("cache: Deflate geometry mismatch")
	}
	d := &l2Delta{
		base:      base,
		allocMask: c.allocMask, stats: c.stats, master: c.master,
		indexKey: c.indexKey, randomized: c.cfg.RandomizedIndex,
	}
	var none chunk // stands in for a nil chunk: no valid line, zero victims
	for ci, k := range c.chunks {
		bk := base.chunks[ci]
		if k == bk {
			continue // shared since the fork, or empty on both sides
		}
		if k == nil {
			k = &none
		}
		if bk == nil {
			bk = &none
		}
		for j := range k.valid {
			s := ci*chunkSets + j
			cm, bm := k.valid[j], bk.valid[j]
			for un := cm | bm; un != 0; un &= un - 1 {
				w := bits.TrailingZeros32(un)
				i, bit := c.slot(s, w), uint32(1)<<w
				if cm&bit == 0 { // base holds a line here, this cache does not
					d.recs = append(d.recs, deltaLine{set: int32(s), way: uint8(w)})
					continue
				}
				dirty, cd := k.dirty[j]&bit != 0, c.lineData(k, i)
				if bm&bit != 0 && k.tags[i] == bk.tags[i] && dirty == (bk.dirty[j]&bit != 0) &&
					k.holder[i] == bk.holder[i] && string(cd) == string(base.lineData(bk, i)) {
					continue
				}
				d.recs = append(d.recs, deltaLine{
					set: int32(s), way: uint8(w), valid: true,
					dirty: dirty, holder: k.holder[i], tag: k.tags[i],
				})
				d.data = append(d.data, cd...)
			}
			if k.victim[j] != bk.victim[j] {
				d.victimSets = append(d.victimSets, int32(s))
				d.victimVals = append(d.victimVals, k.victim[j])
			}
		}
	}
	c.defl = d
	c.chunks, c.owned, c.validCount = nil, nil, nil
	return c.FootprintBytes()
}

// inflate reconstructs a dense cache from base+delta: a clone of the frozen
// base (a chunk-table copy) with the delta records written through wchunk,
// so only the chunks the delta touches are copied.
func (c *L2) inflate(clock *sim.Clock, meter *sim.Meter, b *bus.Bus) *L2 {
	d := c.defl
	n := d.base.Clone(clock, meter, b)
	data := d.data
	for _, rec := range d.recs {
		s, w := int(rec.set), int(rec.way)
		k, j, bit := n.wchunk(s), s&(chunkSets-1), uint32(1)<<w
		wasValid := k.valid[j]&bit != 0
		k.dirty[j] &^= bit
		if !rec.valid {
			if wasValid {
				k.valid[j] &^= bit
				n.validCount[w]--
			}
			continue
		}
		i := n.slot(s, w)
		data = data[copy(n.lineData(k, i), data):]
		k.tags[i], k.holder[i] = rec.tag, rec.holder
		if rec.dirty {
			k.dirty[j] |= bit
		}
		if !wasValid {
			k.valid[j] |= bit
			n.validCount[w]++
		}
	}
	for i, s := range d.victimSets {
		n.wchunk(int(s)).victim[s&(chunkSets-1)] = d.victimVals[i]
	}
	n.allocMask = d.allocMask
	n.stats = d.stats
	n.master = d.master
	n.indexKey = d.indexKey
	n.cfg.RandomizedIndex = d.randomized
	return n
}

// FootprintBytes estimates the bytes this cache pins in its current
// encoding: for a dense cache, its chunk table plus every chunk it
// references (shared or private); for a deflated one, the delta records and
// packed data. Comparative gauge for the fleet's parked-bytes accounting,
// not an exact allocator measurement.
func (c *L2) FootprintBytes() int64 {
	if d := c.defl; d != nil {
		const recBytes = 16 // deltaLine struct, padded
		return int64(len(d.recs))*recBytes + int64(len(d.data)) +
			int64(len(d.victimSets))*5 + 64
	}
	perChunk := int64(chunkSets * (9 /* valid + dirty + victim */ + c.cfg.Ways*(9 /* tag + holder */ +c.cfg.LineSize)))
	n := int64(len(c.chunks))*9 /* table + owned */ + int64(c.cfg.Ways)*8
	for _, k := range c.chunks {
		if k != nil {
			n += perChunk
		}
	}
	return n
}
