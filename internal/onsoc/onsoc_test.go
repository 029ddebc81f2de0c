package onsoc

import (
	"bytes"
	"testing"

	"sentry/internal/aes"
	"sentry/internal/mem"
	"sentry/internal/soc"
)

// aliasBase is a way-aligned DRAM region used for locked-way aliasing in
// tests (the kernel reserves the same region at boot).
const aliasBase = soc.DRAMBase + 0x3000_0000

func TestIRAMAllocFirstFit(t *testing.T) {
	a := NewIRAMAlloc(0x40010000, 1024)
	p1, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := a.Alloc(100)
	if p2 <= p1 || uint64(p2-p1) < 100 {
		t.Fatalf("overlapping allocations %#x %#x", uint64(p1), uint64(p2))
	}
	a.Release(p1)
	p3, _ := a.Alloc(50)
	if p3 != p1 {
		t.Fatalf("first fit should reuse the freed gap: got %#x want %#x", uint64(p3), uint64(p1))
	}
}

func TestIRAMAllocAlignmentAndExhaustion(t *testing.T) {
	a := NewIRAMAlloc(0x40010000, 256)
	p, _ := a.Alloc(5)
	if uint64(p)%4 != 0 {
		t.Fatal("allocation not word aligned")
	}
	if a.Free() != 256-8 {
		t.Fatalf("free = %d", a.Free())
	}
	if _, err := a.Alloc(1024); err == nil {
		t.Fatal("over-allocation succeeded")
	}
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("zero allocation succeeded")
	}
}

func TestIRAMReleaseUnknownPanics(t *testing.T) {
	a := NewIRAMAlloc(0, 128)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Release(64)
}

func TestWayLockerRequiresLockableFirmware(t *testing.T) {
	if _, err := NewWayLocker(soc.Nexus4(1), aliasBase); err == nil {
		t.Fatal("Nexus4 firmware must refuse cache locking")
	}
	if _, err := NewWayLocker(soc.Tegra3(1), aliasBase+1); err == nil {
		t.Fatal("unaligned alias base accepted")
	}
}

func TestLockWayPinsRegion(t *testing.T) {
	s := soc.Tegra3(1)
	w, err := NewWayLocker(s, aliasBase)
	if err != nil {
		t.Fatal(err)
	}
	way, base, err := w.LockWay()
	if err != nil {
		t.Fatal(err)
	}
	if w.LockedMask() != 1<<way {
		t.Fatalf("locked mask = %#x", w.LockedMask())
	}
	if w.LockedBytes() != s.Prof.Cache.WaySize {
		t.Fatalf("locked bytes = %d", w.LockedBytes())
	}

	// Write a secret through the CPU; hammer the cache; verify the secret
	// stays resident and never reaches DRAM.
	secret := []byte("WAY-LOCKED-SECRET-0123456789ABCD")
	s.CPU.WritePhys(base+0x100, secret)
	junk := make([]byte, 4096)
	for i := 0; i < 64; i++ {
		s.CPU.ReadPhys(soc.DRAMBase+mem.PhysAddr(i*1<<20), junk)
	}
	got := make([]byte, len(secret))
	s.CPU.ReadPhys(base+0x100, got)
	if !bytes.Equal(got, secret) {
		t.Fatal("locked data lost")
	}
	dramCopy := make([]byte, len(secret))
	s.DRAM.Read(base+0x100, dramCopy)
	if bytes.Contains(dramCopy, []byte("SECRET")) {
		t.Fatal("locked data leaked to DRAM")
	}
}

func TestKernelFlushWithMaskPreservesLockedData(t *testing.T) {
	s := soc.Tegra3(1)
	w, _ := NewWayLocker(s, aliasBase)
	_, base, _ := w.LockWay()
	s.CPU.WritePhys(base, []byte("masked-flush"))
	// The patched kernel path: flush everything except locked ways.
	s.L2.CleanInvalidateWays(w.FlushMask())
	got := make([]byte, 12)
	s.CPU.ReadPhys(base, got)
	if !bytes.Equal(got, []byte("masked-flush")) {
		t.Fatal("masked flush destroyed locked data")
	}
	leak := make([]byte, 12)
	s.DRAM.Read(base, leak)
	if bytes.Equal(leak, []byte("masked-flush")) {
		t.Fatal("masked flush leaked locked data")
	}
}

func TestUnlockWayErasesBeforeRelease(t *testing.T) {
	s := soc.Tegra3(1)
	w, _ := NewWayLocker(s, aliasBase)
	way, base, _ := w.LockWay()
	s.CPU.WritePhys(base+64, []byte("ERASE-ME"))
	if err := w.UnlockWay(way); err != nil {
		t.Fatal(err)
	}
	if w.LockedMask() != 0 {
		t.Fatal("mask not cleared")
	}
	// Neither cache nor DRAM may hold the secret now.
	dram := make([]byte, 8)
	s.DRAM.Read(base+64, dram)
	if bytes.Equal(dram, []byte("ERASE-ME")) {
		t.Fatal("secret reached DRAM on unlock")
	}
	cached := make([]byte, 8)
	if s.L2.Snoop(base+64, cached) && bytes.Equal(cached, []byte("ERASE-ME")) {
		t.Fatal("secret survived in cache after unlock")
	}
	if err := w.UnlockWay(way); err == nil {
		t.Fatal("double unlock succeeded")
	}
}

func TestWayAllocSpansWays(t *testing.T) {
	s := soc.Tegra3(1)
	w, _ := NewWayLocker(s, aliasBase)
	// Exhaust the first way: way size 128 KB, so three 50 KB allocations
	// force a second way.
	seen := map[mem.PhysAddr]bool{}
	for i := 0; i < 3; i++ {
		p, err := w.Alloc(50 << 10)
		if err != nil {
			t.Fatal(err)
		}
		if seen[p] {
			t.Fatal("duplicate allocation")
		}
		seen[p] = true
	}
	if w.LockedBytes() != 2*s.Prof.Cache.WaySize {
		t.Fatalf("locked bytes = %d, want two ways", w.LockedBytes())
	}
}

func TestIRAMStoreInvisibleOnBus(t *testing.T) {
	s := soc.Tegra3(1)
	base, _ := s.UsableIRAM()
	st := NewCPUStore(s.CPU, base, false)
	before := s.Bus.Stats()
	st.Store32(0, 0xDEADBEEF)
	if st.Load32(0) != 0xDEADBEEF {
		t.Fatal("round trip failed")
	}
	st.Touch(100, false)
	if s.Bus.Stats() != before {
		t.Fatal("iRAM store produced bus traffic")
	}
}

func TestUncachedStoreVisibleOnBus(t *testing.T) {
	s := soc.Tegra3(1)
	st := NewCPUStore(s.CPU, soc.DRAMBase+0x1000, true)
	before := s.Bus.Stats()
	st.Store32(0, 1)
	_ = st.Load32(0)
	after := s.Bus.Stats()
	if after.Reads == before.Reads || after.Writes == before.Writes {
		t.Fatal("uncached accesses must cross the bus")
	}
}

func TestAESOnSoCInIRAMCorrectAndInvisible(t *testing.T) {
	s := soc.Tegra3(1)
	base, size := s.UsableIRAM()
	alloc := NewIRAMAlloc(base, size)
	key := bytes.Repeat([]byte{0x42}, 16)
	a, err := NewInIRAM(s, alloc, key)
	if err != nil {
		t.Fatal(err)
	}
	if a.Placement() != PlaceIRAM || !a.Placement().OnSoC() {
		t.Fatal("placement wrong")
	}

	msg := bytes.Repeat([]byte("sixteen bytes!!!"), 8)
	iv := make([]byte, 16)
	ct := make([]byte, len(msg))
	before := s.Bus.Stats()
	if err := a.EncryptCBC(ct, msg, iv); err != nil {
		t.Fatal(err)
	}
	if s.Bus.Stats() != before {
		t.Fatal("AES On SoC (iRAM) generated bus traffic")
	}
	// Validate against the reference cipher.
	ref, _ := aes.NewCipher(key)
	want := make([]byte, len(msg))
	_ = ref.EncryptCBC(want, msg, iv)
	if !bytes.Equal(ct, want) {
		t.Fatal("on-SoC ciphertext wrong")
	}
	pt := make([]byte, len(msg))
	if err := a.DecryptCBC(pt, ct, iv); err != nil || !bytes.Equal(pt, msg) {
		t.Fatal("on-SoC decrypt failed")
	}
	// Registers zeroed after the bracket.
	for _, r := range s.CPU.Regs {
		if r != 0 {
			t.Fatal("registers not zeroed after on-SoC operation")
		}
	}
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	if alloc.Free() != size {
		t.Fatal("release did not return iRAM")
	}
}

func TestAESOnSoCInLockedWay(t *testing.T) {
	s := soc.Tegra3(1)
	locker, _ := NewWayLocker(s, aliasBase)
	key := bytes.Repeat([]byte{7}, 16)
	a, err := NewInLockedWay(s, locker, key)
	if err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("0123456789abcdef"), 16)
	iv := make([]byte, 16)
	ct := make([]byte, len(msg))
	before := s.Bus.Stats()
	if err := a.EncryptCBC(ct, msg, iv); err != nil {
		t.Fatal(err)
	}
	if s.Bus.Stats() != before {
		t.Fatal("locked-way AES generated bus traffic")
	}
	// The key schedule must not be in DRAM, even after a (masked) flush.
	s.L2.CleanInvalidateWays(locker.FlushMask())
	arena := make([]byte, aes.ArenaSize)
	s.DRAM.Read(a.ArenaBase(), arena)
	enc, _ := aes.NewCipher(key)
	sched := make([]byte, 16)
	for i := 0; i < 4; i++ {
		w := enc.EncSchedule()[4+i] // first derived round key
		sched[4*i] = byte(w >> 24)
		sched[4*i+1] = byte(w >> 16)
		sched[4*i+2] = byte(w >> 8)
		sched[4*i+3] = byte(w)
	}
	if bytes.Contains(arena, sched) {
		t.Fatal("round keys leaked into DRAM")
	}
}

func TestGenericAESLeavesScheduleInDRAM(t *testing.T) {
	s := soc.Tegra3(1)
	key := bytes.Repeat([]byte{9}, 16)
	a, err := NewGeneric(s, soc.DRAMBase+0x100000, key, false)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 64)
	_ = a.EncryptCBC(make([]byte, 64), msg, make([]byte, 16))
	// Once the cache drains (eviction, flush, suspend), the schedule is in
	// the DRAM chips for any cold-boot attacker.
	s.L2.CleanWays(s.L2.AllWaysMask())
	arena := make([]byte, aes.ArenaSize)
	s.DRAM.Read(a.ArenaBase(), arena)
	ref, _ := aes.NewCipher(key)
	firstRK := []byte{
		byte(ref.EncSchedule()[4] >> 24), byte(ref.EncSchedule()[4] >> 16),
		byte(ref.EncSchedule()[4] >> 8), byte(ref.EncSchedule()[4]),
	}
	if !bytes.Contains(arena, firstRK) {
		t.Fatal("generic AES schedule should be recoverable from DRAM")
	}
}

func TestContextSwitchLeaksGenericButNotOnSoC(t *testing.T) {
	s := soc.Tegra3(1)
	s.CPU.KernelStack = soc.DRAMBase + 0x8000

	// Generic AES: preemption mid-encryption spills working state.
	g, _ := NewGeneric(s, soc.DRAMBase+0x100000, bytes.Repeat([]byte{3}, 16), false)
	preempted := 0
	g.Store.PreemptFn = func() {
		preempted++
		s.CPU.SpillRegs()
	}
	msg := make([]byte, 160)
	_ = g.EncryptCBC(make([]byte, 160), msg, make([]byte, 16))
	if preempted == 0 {
		t.Fatal("generic AES was never preemptible")
	}
	if s.CPU.RegisterSpills == 0 {
		t.Fatal("no register spill recorded")
	}

	// AES On SoC: the IRQ bracket makes Yield a no-op.
	base, size := s.UsableIRAM()
	a, _ := NewInIRAM(s, NewIRAMAlloc(base, size), bytes.Repeat([]byte{4}, 16))
	onsocPreempts := 0
	a.Store.PreemptFn = func() { onsocPreempts++ }
	_ = a.EncryptCBC(make([]byte, 160), msg, make([]byte, 16))
	if onsocPreempts != 0 {
		t.Fatal("on-SoC AES was preempted despite the IRQ bracket")
	}
}

func TestBulkMatchesFidelity(t *testing.T) {
	s := soc.Tegra3(1)
	base, size := s.UsableIRAM()
	alloc := NewIRAMAlloc(base, size)
	a, _ := NewInIRAM(s, alloc, bytes.Repeat([]byte{5}, 16))
	msg := make([]byte, 4096)
	iv := make([]byte, 16)
	fid := make([]byte, len(msg))
	blk := make([]byte, len(msg))
	if err := a.EncryptCBC(fid, msg, iv); err != nil {
		t.Fatal(err)
	}
	if err := a.EncryptCBCBulk(blk, msg, iv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fid, blk) {
		t.Fatal("bulk and fidelity paths disagree")
	}
	pt := make([]byte, len(msg))
	if err := a.DecryptCBCBulk(pt, blk, iv); err != nil || !bytes.Equal(pt, msg) {
		t.Fatal("bulk decrypt failed")
	}
}

func TestPlacementStrings(t *testing.T) {
	for _, p := range []Placement{PlaceDRAM, PlaceDRAMUncached, PlaceIRAM, PlaceLockedWay} {
		if p.String() == "" {
			t.Fatal("empty placement string")
		}
	}
	if PlaceDRAM.OnSoC() || PlaceDRAMUncached.OnSoC() {
		t.Fatal("DRAM placements claimed on-SoC")
	}
}

func TestPaperUARTLoopbackValidation(t *testing.T) {
	// The paper's §4.2 hardware validation, end to end: write an 8-byte
	// random pattern that never appears in DRAM to a physical address that
	// maps into a locked cache way, then DMA that address to the UART
	// debugging port (which loops back everything written to it) and read
	// the serial output. The pattern must be absent while the way is
	// locked, and present after the way is unlocked and cleaned.
	s := soc.Tegra3(1)
	w, err := NewWayLocker(s, aliasBase)
	if err != nil {
		t.Fatal(err)
	}
	way, base, err := w.LockWay()
	if err != nil {
		t.Fatal(err)
	}
	pattern := make([]byte, 8)
	s.RNG.Read(pattern)
	s.CPU.WritePhys(base+0x2000, pattern)

	if err := s.UART.TransmitFromMem(s.DMA, base+0x2000, 8); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(s.UART.Drain(), pattern) {
		t.Fatal("locked-way data observable over UART DMA loopback")
	}

	// Unlock erases the way, so the pattern is gone for good — write it
	// again through the normal cache path and clean, then the loopback
	// sees it (proving the DMA path itself works).
	if err := w.UnlockWay(way); err != nil {
		t.Fatal(err)
	}
	s.CPU.WritePhys(base+0x2000, pattern)
	s.L2.CleanWays(s.L2.AllWaysMask())
	if err := s.UART.TransmitFromMem(s.DMA, base+0x2000, 8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(s.UART.Drain(), pattern) {
		t.Fatal("DMA loopback path broken")
	}
}

func TestCPUStoreTouchCostsByPlacement(t *testing.T) {
	// Touch must charge each placement at its own rate: iRAM and cached
	// DRAM at on-SoC latencies, uncached DRAM at bus latency.
	s := soc.Tegra3(1)
	iramBase, _ := s.UsableIRAM()
	measure := func(st *CPUStore) uint64 {
		c0 := s.Clock.Cycles()
		st.Touch(1000, false)
		return s.Clock.Cycles() - c0
	}
	iram := measure(NewCPUStore(s.CPU, iramBase, false))
	cached := measure(NewCPUStore(s.CPU, soc.DRAMBase+0x1000, false))
	uncached := measure(NewCPUStore(s.CPU, soc.DRAMBase+0x1000, true))
	if iram != 1000*s.Prof.Costs.IRAMAccess {
		t.Fatalf("iram touch = %d cycles", iram)
	}
	if cached != 1000*s.Prof.Costs.L2Hit {
		t.Fatalf("cached touch = %d cycles", cached)
	}
	if uncached != 1000*s.Prof.Costs.DRAMAccess {
		t.Fatalf("uncached touch = %d cycles", uncached)
	}
	if !(uncached > cached) {
		t.Fatal("uncached must cost more than cached")
	}
}

func TestReleaseIsIdempotent(t *testing.T) {
	s := soc.Tegra3(1)
	base, size := s.UsableIRAM()
	alloc := NewIRAMAlloc(base, size)
	a, err := NewInIRAM(s, alloc, make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	if err := a.Release(); err != nil { // second release must be a no-op
		t.Fatal(err)
	}
}

func TestWipeOnReleaseClearsArena(t *testing.T) {
	s := soc.Tegra3(1)
	base, size := s.UsableIRAM()
	alloc := NewIRAMAlloc(base, size)
	key := []byte("wipe-me-key-1234")
	a, err := NewInIRAM(s, alloc, key)
	if err != nil {
		t.Fatal(err)
	}
	arenaBase := a.ArenaBase()
	if err := a.Release(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, aes.ArenaSize)
	s.IRAM.Read(arenaBase, buf)
	for _, b := range buf {
		if b != 0xFF {
			t.Fatal("arena not wiped to 0xFF on release")
		}
	}
}

// TestCPUStoreWordAccessorsDoNotAllocate: the AES table accessors stage
// their bytes in the store's own word, on an iRAM arena and on a DRAM arena
// whose line is warm in an L2 the platform owns.
func TestCPUStoreWordAccessorsDoNotAllocate(t *testing.T) {
	s := soc.Tegra3(1)
	iram, _ := s.UsableIRAM()
	for _, tc := range []struct {
		name string
		base mem.PhysAddr
	}{{"iram", iram}, {"dram-l2", soc.DRAMBase + 0x200000}} {
		st := NewCPUStore(s.CPU, tc.base, false)
		st.Store32(0, 0x01020304) // warms the DRAM arena's line
		var sink uint32
		allocs := testing.AllocsPerRun(100, func() {
			st.Store32(4, 0xA1B2C3D4)
			sink += st.Load32(4)
			st.StoreByte(9, 0x5A)
			sink += uint32(st.LoadByte(9))
		})
		if allocs != 0 {
			t.Errorf("%s: word accessors allocated %v times per round", tc.name, allocs)
		}
		if st.Load32(4) != 0xA1B2C3D4 || st.LoadByte(9) != 0x5A || st.Load32(0) != 0x01020304 {
			t.Errorf("%s: accessors did not round-trip", tc.name)
		}
	}
}
