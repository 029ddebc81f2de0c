// Package mem models the physical memory devices of the simulated SoC: the
// external DRAM chips and the on-SoC internal SRAM (iRAM). Devices are
// sparse — backing pages are allocated on first touch — so a platform can
// expose a 1–2 GB DRAM without the host paying for it.
//
// This package is purely about storage and the physical address map. Timing
// and observability (who can see an access) live in the bus, cache, and cpu
// packages layered above.
package mem

import (
	"fmt"
	"sort"
)

// PhysAddr is a physical address on the SoC.
type PhysAddr uint64

// PageSize is the backing-store granule and the architectural page size.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// PageBase returns the page-aligned base of addr.
func PageBase(a PhysAddr) PhysAddr { return a &^ (PageSize - 1) }

// Store is a sparse byte store of a fixed size, indexed from zero. Backing
// pages materialise on first write; reads of untouched pages return zero.
//
// A Store may carry a frozen copy-on-write base layer underneath its
// private pages: Seal freezes the current contents into the base, and Fork
// returns a new store sharing that base. Reads fall through private pages
// to the base; the first write to a base page copies it into the private
// layer. Pages reachable from any base map are immutable forever — Seal
// never mutates an existing base map, it builds a merged replacement — so
// concurrently forking from one sealed store is safe even though stores
// themselves are single-owner.
//
// A Store is not safe for concurrent use: each simulated platform is
// single-threaded by design, and each experiment owns its platform. The
// former per-access RWMutex bought nothing but cost on the hot path, so the
// bulk accessors are lock-elided; a last-page pointer cache short-circuits
// the map lookup for the sequential streams that dominate the workloads.
type Store struct {
	size  uint64
	pages map[uint64]*[PageSize]byte // private, writable pages
	base  map[uint64]*[PageSize]byte // frozen COW layer; nil for a flat store
	// borrowed marks a private layer that holds frozen pages Rebase kept by
	// reference: the store seals before its first write, so the write
	// copies out of the base instead of landing in a shared page.
	borrowed bool

	// Recently touched pages, direct-mapped by a multiplicative hash of the
	// page number: access streams are sequential but interleave a few pages
	// (an L2 eviction write-back ping-pongs with the fill that triggered
	// it), so a handful of slots turns nearly every per-access map lookup
	// into a compare. The hash matters: the fill and write-back streams
	// run exactly one L2-capacity apart, a power-of-two page distance that
	// would make both streams collide in every low-bits-indexed slot.
	// cacheRW marks slots holding private pages; a slot caching a frozen
	// page (base, or borrowed by Rebase) satisfies reads but never the
	// write path.
	cachePN   [pageCacheSlots]uint64
	cachePage [pageCacheSlots]*[PageSize]byte
	cacheRW   [pageCacheSlots]bool
}

// pageCacheSlots sizes the Store's direct-mapped page cache; must be a
// power of two.
const pageCacheSlots = 8

// pageSlot maps a page number to its cache slot by Fibonacci hashing.
func pageSlot(pn uint64) uint64 {
	return (pn * 0x9e3779b97f4a7c15) >> 61 // top bits select among 8 slots
}

// NewStore returns a sparse store of the given size in bytes.
func NewStore(size uint64) *Store {
	return &Store{size: size, pages: make(map[uint64]*[PageSize]byte)}
}

// lookup returns the backing page pn, or nil if untouched. Private pages
// shadow base pages, so the private map is always consulted first on a
// cache miss.
func (s *Store) lookup(pn uint64) *[PageSize]byte {
	slot := pageSlot(pn)
	if s.cachePage[slot] != nil && s.cachePN[slot] == pn {
		return s.cachePage[slot]
	}
	p := s.pages[pn]
	rw := p != nil && !s.borrowed
	if p == nil && s.base != nil {
		p = s.base[pn]
	}
	if p != nil {
		s.cachePN[slot], s.cachePage[slot], s.cacheRW[slot] = pn, p, rw
	}
	return p
}

// materialise returns a writable backing page pn, allocating it if
// untouched and copying it out of the frozen base on first write.
func (s *Store) materialise(pn uint64) *[PageSize]byte {
	slot := pageSlot(pn)
	if s.cacheRW[slot] && s.cachePN[slot] == pn {
		return s.cachePage[slot]
	}
	if s.borrowed {
		s.Seal()
	}
	p := s.pages[pn]
	if p == nil {
		p = new([PageSize]byte)
		if s.base != nil {
			if frozen := s.base[pn]; frozen != nil {
				*p = *frozen
			}
		}
		s.pages[pn] = p
	}
	s.cachePN[slot], s.cachePage[slot], s.cacheRW[slot] = pn, p, true
	return p
}

// Seal freezes the store's current contents into its copy-on-write base
// layer. Subsequent writes to any page — including by this store — first
// copy the page into the private layer, so every Fork taken from the sealed
// state keeps seeing the sealed bytes. Sealing an already-sealed store
// merges the private pages into a new base map; the old base map is never
// mutated, so earlier forks are unaffected.
func (s *Store) Seal() {
	if len(s.pages) == 0 && s.base != nil {
		return // already sealed with nothing new to freeze
	}
	nb := make(map[uint64]*[PageSize]byte, len(s.base)+len(s.pages))
	for pn, p := range s.base {
		nb[pn] = p
	}
	for pn, p := range s.pages {
		nb[pn] = p
	}
	s.base = nb
	s.pages = make(map[uint64]*[PageSize]byte)
	s.borrowed = false
	s.cacheRW = [pageCacheSlots]bool{} // every cached page is now frozen
}

// Fork seals the store and returns a new store sharing its pages
// copy-on-write. The fork costs O(1) plus the seal's metadata merge; page
// data is copied only when either side writes.
func (s *Store) Fork() *Store {
	s.Seal()
	return &Store{size: s.size, pages: make(map[uint64]*[PageSize]byte), base: s.base}
}

// Size returns the store's capacity in bytes.
func (s *Store) Size() uint64 { return s.size }

func (s *Store) check(off uint64, n int) {
	if off+uint64(n) > s.size {
		panic(fmt.Sprintf("mem: access [%#x,+%d) beyond store size %#x", off, n, s.size))
	}
}

// ByteAt returns the byte at offset off.
func (s *Store) ByteAt(off uint64) byte {
	s.check(off, 1)
	p := s.lookup(off >> PageShift)
	if p == nil {
		return 0
	}
	return p[off&(PageSize-1)]
}

// SetByte stores b at offset off.
func (s *Store) SetByte(off uint64, b byte) {
	s.check(off, 1)
	s.materialise(off >> PageShift)[off&(PageSize-1)] = b
}

// Read copies len(dst) bytes starting at off into dst.
func (s *Store) Read(off uint64, dst []byte) {
	s.check(off, len(dst))
	for len(dst) > 0 {
		pn := off >> PageShift
		po := off & (PageSize - 1)
		n := PageSize - po
		if uint64(len(dst)) < n {
			n = uint64(len(dst))
		}
		if p := s.lookup(pn); p != nil {
			copy(dst[:n], p[po:po+n])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		off += n
	}
}

// Write copies src into the store starting at off.
func (s *Store) Write(off uint64, src []byte) {
	s.check(off, len(src))
	for len(src) > 0 {
		pn := off >> PageShift
		po := off & (PageSize - 1)
		n := PageSize - po
		if uint64(len(src)) < n {
			n = uint64(len(src))
		}
		copy(s.materialise(pn)[po:po+n], src[:n])
		src = src[n:]
		off += n
	}
}

// zeroPage is the comparison target for untouched (architecturally zero)
// pages during Rebase, and the shared page Rebase shadows lost base pages
// with. It is never written.
var zeroPage [PageSize]byte

// Rebase re-encodes the store as a delta against a sealed base store: after
// it returns, the store's COW base layer is the base's (shared, not copied)
// and the private layer holds only the pages whose bytes differ from the
// base — including explicit zero pages shadowing base pages this store has
// zeroed. Byte-for-byte contents are unchanged; only the representation is.
// It returns the number of private delta pages retained, which is the
// store's marginal memory cost over the shared base.
//
// This is the memory lever behind delta-encoded parked snapshots: a parked
// device's stores drop their merged per-fork base maps (O(every page the
// boot image touched) each) and keep O(pages diverged since boot). The next
// Fork re-merges via Seal as usual, so hydration needs no special path.
//
// Frozen pages carried over from the old base, and the zero shadows, are
// kept by reference, not copied: they are immutable, and the store seals
// before its next write (see borrowed) so no write reaches them.
func (s *Store) Rebase(base *Store) int {
	if s == base {
		panic("mem: Rebase against self")
	}
	if base.size != s.size {
		panic(fmt.Sprintf("mem: Rebase size mismatch: %#x vs base %#x", s.size, base.size))
	}
	if len(base.pages) != 0 {
		panic("mem: Rebase against an unsealed base (Seal it first)")
	}
	delta := make(map[uint64]*[PageSize]byte)
	differs := func(p, bp *[PageSize]byte) bool {
		return bp != p && ((bp == nil && *p != zeroPage) || (bp != nil && *p != *bp))
	}
	// Pages this store can see: private shadows first, then its old base.
	for pn, p := range s.pages {
		if differs(p, base.base[pn]) {
			delta[pn] = p
		}
	}
	borrowed := s.borrowed
	for pn, p := range s.base {
		if _, shadowed := s.pages[pn]; !shadowed && differs(p, base.base[pn]) {
			delta[pn] = p
			borrowed = true
		}
	}
	// Base pages this store has lost (ZeroAll, or never inherited): shadow
	// them with the zero page so reads keep returning zeroes.
	for pn, bp := range base.base {
		if _, ok := delta[pn]; ok {
			continue
		}
		if s.pages[pn] != nil || (s.base != nil && s.base[pn] != nil) {
			continue // visible above; already compared
		}
		if *bp != zeroPage {
			delta[pn] = &zeroPage
			borrowed = true
		}
	}
	s.pages = delta
	s.base = base.base
	s.borrowed = borrowed
	s.cachePN = [pageCacheSlots]uint64{}
	s.cachePage = [pageCacheSlots]*[PageSize]byte{}
	s.cacheRW = [pageCacheSlots]bool{}
	return len(delta)
}

// ResidentPages estimates the number of map entries this store holds across
// both layers — the metadata footprint a Rebase collapses. Pages shadowing a
// base entry count twice; the estimate is exact for sealed or rebased
// stores, which have no shadows.
func (s *Store) ResidentPages() int { return len(s.pages) + len(s.base) }

// ZeroAll discards every backing page — including the inherited COW base —
// returning the store to all-zeroes.
func (s *Store) ZeroAll() {
	s.pages = make(map[uint64]*[PageSize]byte)
	s.base = nil
	s.borrowed = false
	s.cachePage = [pageCacheSlots]*[PageSize]byte{}
	s.cacheRW = [pageCacheSlots]bool{}
}

// TouchedPages returns the sorted offsets of pages that have backing store,
// in the private layer or inherited from the COW base: a forked world's
// touched set must include the pages its parent dirtied, or remanence
// post-mortems would under-scan the fork. Untouched pages are
// architecturally zero and cannot hold remanent data.
func (s *Store) TouchedPages() []uint64 {
	out := make([]uint64, 0, len(s.pages)+len(s.base))
	for pn := range s.pages {
		out = append(out, pn<<PageShift)
	}
	for pn := range s.base {
		if _, shadowed := s.pages[pn]; !shadowed {
			out = append(out, pn<<PageShift)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MutatePages calls fn for every touched page (base pages included), in
// ascending address order, with its base offset and a mutable view of its
// bytes. Inherited base pages are materialised before fn sees them — fn
// mutates in place, and frozen base pages are shared with other forks. It
// is the hook the remanence model uses to decay memory contents; the fixed
// order keeps the RNG draw sequence — and therefore every decayed dump —
// identical for a given seed.
func (s *Store) MutatePages(fn func(base uint64, data []byte)) {
	for _, base := range s.TouchedPages() {
		fn(base, s.materialise(base >> PageShift)[:])
	}
}

// Device is a physical memory device mapped at a fixed base address.
type Device struct {
	name string
	base PhysAddr
	s    *Store
	// Volatile reports whether the device loses content on power cut
	// according to its technology curve; both DRAM and SRAM are volatile,
	// but with different decay rates (see package remanence).
	tech Technology
}

// Technology identifies the storage technology, which selects the remanence
// decay curve on power loss.
type Technology int

// Storage technologies.
const (
	TechDRAM Technology = iota // external DDR DRAM
	TechSRAM                   // on-SoC internal SRAM (iRAM)
)

func (t Technology) String() string {
	switch t {
	case TechDRAM:
		return "DRAM"
	case TechSRAM:
		return "SRAM"
	default:
		return fmt.Sprintf("Technology(%d)", int(t))
	}
}

// NewDevice returns a device of the given technology at base covering size bytes.
func NewDevice(name string, tech Technology, base PhysAddr, size uint64) *Device {
	return &Device{name: name, base: base, s: NewStore(size), tech: tech}
}

// Name returns the device name (e.g. "dram0", "iram").
func (d *Device) Name() string { return d.name }

// Base returns the device's base physical address.
func (d *Device) Base() PhysAddr { return d.base }

// Size returns the device's capacity in bytes.
func (d *Device) Size() uint64 { return d.s.Size() }

// Limit returns one past the device's last physical address.
func (d *Device) Limit() PhysAddr { return d.base + PhysAddr(d.s.Size()) }

// Tech returns the storage technology.
func (d *Device) Tech() Technology { return d.tech }

// Store exposes the raw backing store; used by remanence and by attack
// drivers that dump the physical device contents.
func (d *Device) Store() *Store { return d.s }

// Fork returns a device of identical geometry whose store is a
// copy-on-write fork of this device's store (which is sealed as a side
// effect; see Store.Seal).
func (d *Device) Fork() *Device {
	return &Device{name: d.name, base: d.base, s: d.s.Fork(), tech: d.tech}
}

// Rebase re-encodes the device's store as a delta against base's sealed
// store (see Store.Rebase); returns the number of delta pages retained.
func (d *Device) Rebase(base *Device) int { return d.s.Rebase(base.s) }

// ResidentPages reports how many distinct pages the device's store reaches
// (private plus base layers) — the page-count basis of footprint accounting.
func (d *Device) ResidentPages() int { return d.s.ResidentPages() }

// Contains reports whether addr falls inside the device.
func (d *Device) Contains(addr PhysAddr) bool {
	return addr >= d.base && addr < d.Limit()
}

// ByteAt reads the byte at absolute physical address addr.
func (d *Device) ByteAt(addr PhysAddr) byte {
	return d.s.ByteAt(uint64(addr - d.base))
}

// SetByte writes b at absolute physical address addr.
func (d *Device) SetByte(addr PhysAddr, b byte) {
	d.s.SetByte(uint64(addr-d.base), b)
}

// Read copies len(dst) bytes starting at absolute address addr.
func (d *Device) Read(addr PhysAddr, dst []byte) {
	d.s.Read(uint64(addr-d.base), dst)
}

// Write copies src starting at absolute address addr.
func (d *Device) Write(addr PhysAddr, src []byte) {
	d.s.Write(uint64(addr-d.base), src)
}

// Map is the SoC physical address map: an ordered set of non-overlapping
// devices.
type Map struct {
	devs []*Device
}

// NewMap returns an address map over the given devices. It panics if any
// two devices overlap.
func NewMap(devs ...*Device) *Map {
	m := &Map{}
	for _, d := range devs {
		m.Add(d)
	}
	return m
}

// Add inserts a device, keeping the map sorted by base address.
func (m *Map) Add(d *Device) {
	for _, e := range m.devs {
		if d.Base() < e.Limit() && e.Base() < d.Limit() {
			panic(fmt.Sprintf("mem: device %s [%#x,%#x) overlaps %s [%#x,%#x)",
				d.Name(), d.Base(), d.Limit(), e.Name(), e.Base(), e.Limit()))
		}
	}
	m.devs = append(m.devs, d)
	sort.Slice(m.devs, func(i, j int) bool { return m.devs[i].Base() < m.devs[j].Base() })
}

// Devices returns the devices in address order.
func (m *Map) Devices() []*Device { return m.devs }

// Find returns the device containing addr, or nil.
func (m *Map) Find(addr PhysAddr) *Device {
	i := sort.Search(len(m.devs), func(i int) bool { return m.devs[i].Limit() > addr })
	if i < len(m.devs) && m.devs[i].Contains(addr) {
		return m.devs[i]
	}
	return nil
}

// MustFind is Find but panics on an unmapped address; hardware would raise
// a bus abort here, and in the simulator an unmapped access is always a bug.
func (m *Map) MustFind(addr PhysAddr) *Device {
	d := m.Find(addr)
	if d == nil {
		panic(fmt.Sprintf("mem: access to unmapped physical address %#x", addr))
	}
	return d
}
