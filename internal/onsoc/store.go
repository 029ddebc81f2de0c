// Package onsoc implements the paper's "AES On SoC" (§6.2) and the on-SoC
// storage management it depends on (§4): a first-fit allocator for the
// usable iRAM, the four-step PL310 way-locking sequence, and placed-AES
// arenas backed by iRAM, a locked L2 way, or (as the unsafe baseline) plain
// DRAM. The secure cipher brackets its work in interrupt-disable sections
// and zeroes the register file on exit, so no sensitive state can reach
// DRAM through a context-switch register spill or a procedure-call stack.
package onsoc

import (
	"encoding/binary"

	"sentry/internal/aes"
	"sentry/internal/cpu"
	"sentry/internal/mem"
	"sentry/internal/soc"
)

// CPUStore adapts a physical memory range into an aes.Store: all arena
// accesses are routed through the CPU, so they hit iRAM, the cache, or the
// external bus exactly as the range's location dictates.
type CPUStore struct {
	CPU  *cpu.CPU
	Base mem.PhysAddr

	// Uncached routes accesses around the L2 (a device / DMA-coherent
	// mapping). dm-crypt-style drivers use such mappings for their crypto
	// buffers; with the arena uncached, every table lookup is bus-visible.
	Uncached bool

	// Mirror publishes the cipher's working state into the architectural
	// register file, as a register-allocated AES inner loop would.
	Mirror bool

	// PreemptFn, if set, is called at Yield points while interrupts are
	// enabled; the kernel uses it to model scheduler preemption landing in
	// the middle of an encryption.
	PreemptFn func()

	// inIRAM caches the routing decision for Touch charging.
	inIRAM bool

	// word stages the word accessors' bytes. The buffer reaches the bus's
	// fault-injector interface, so a local array would escape to the heap
	// on every table lookup; like its platform, a store has one owner.
	word [4]byte
}

// NewCPUStore returns a store for an arena at base. base must have
// aes.ArenaSize addressable bytes behind it.
func NewCPUStore(c *cpu.CPU, base mem.PhysAddr, uncached bool) *CPUStore {
	s := &CPUStore{CPU: c, Base: base, Uncached: uncached}
	// Cache the routing decision: anything below the DRAM window is on-SoC.
	s.inIRAM = base < soc.DRAMBase
	return s
}

func (s *CPUStore) read(off int, b []byte) {
	if s.Uncached {
		s.CPU.ReadPhysUncached(s.Base+mem.PhysAddr(off), b)
	} else {
		s.CPU.ReadPhys(s.Base+mem.PhysAddr(off), b)
	}
}

func (s *CPUStore) write(off int, b []byte) {
	if s.Uncached {
		s.CPU.WritePhysUncached(s.Base+mem.PhysAddr(off), b)
	} else {
		s.CPU.WritePhys(s.Base+mem.PhysAddr(off), b)
	}
}

// Load32 reads a big-endian arena word.
func (s *CPUStore) Load32(off int) uint32 {
	s.read(off, s.word[:])
	return binary.BigEndian.Uint32(s.word[:])
}

// Store32 writes a big-endian arena word.
func (s *CPUStore) Store32(off int, v uint32) {
	binary.BigEndian.PutUint32(s.word[:], v)
	s.write(off, s.word[:])
}

// LoadByte reads one arena byte.
func (s *CPUStore) LoadByte(off int) byte {
	s.read(off, s.word[:1])
	return s.word[0]
}

// StoreByte writes one arena byte.
func (s *CPUStore) StoreByte(off int, b byte) {
	s.word[0] = b
	s.write(off, s.word[:1])
}

// Touch charges n word accesses at the arena's effective cost. For a DRAM
// arena the working set is cache-resident after the first block, so the
// amortised cost is an L2 hit; iRAM charges its own port cost; an uncached
// arena pays the bus every time.
func (s *CPUStore) Touch(n int, write bool) {
	costs := s.CPU.Costs()
	energy := s.CPU.Energy()
	var cy uint64
	var pj float64
	switch {
	case s.inIRAM:
		cy, pj = costs.IRAMAccess, energy.IRAMAccessPJ
	case s.Uncached:
		cy, pj = costs.DRAMAccess, energy.DRAMAccessPJ
	default:
		cy, pj = costs.L2Hit, energy.L2HitPJ
	}
	s.CPU.Clock().Advance(uint64(n) * cy)
	s.CPU.Meter().Charge(float64(n) * pj)
}

// Compute charges ALU cycles and their dynamic energy.
func (s *CPUStore) Compute(cycles uint64) {
	s.CPU.Clock().Advance(cycles)
	s.CPU.Meter().Charge(float64(cycles) * s.CPU.Energy().CPUCyclePJ)
}

// Yield gives the kernel a preemption opportunity — only effective while
// interrupts are enabled, which is precisely what the secure bracket
// prevents.
func (s *CPUStore) Yield() {
	if s.PreemptFn != nil && s.CPU.IRQEnabled() {
		s.PreemptFn()
	}
}

// MirrorRegs implements aes.RegMirror.
func (s *CPUStore) MirrorRegs(ws [4]uint32) {
	if !s.Mirror {
		return
	}
	s.CPU.Regs[0] = ws[0]
	s.CPU.Regs[1] = ws[1]
	s.CPU.Regs[2] = ws[2]
	s.CPU.Regs[3] = ws[3]
}

var _ aes.Store = (*CPUStore)(nil)
var _ aes.RegMirror = (*CPUStore)(nil)
