package attack

import (
	"bytes"
	"testing"

	"sentry/internal/aes"
	"sentry/internal/mem"
	"sentry/internal/onsoc"
	"sentry/internal/soc"
	"sentry/internal/tz"
)

func TestCountPattern(t *testing.T) {
	st := mem.NewStore(1 << 16)
	pat := []byte("ABCDEFGH")
	for off := uint64(0); off < 1<<16; off += 8 {
		st.Write(off, pat)
	}
	if got := CountPattern(st, pat); got != 1<<16/8 {
		t.Fatalf("count = %d", got)
	}
	st.Write(16, []byte("XXXXXXXX"))
	if got := CountPattern(st, pat); got != 1<<16/8-1 {
		t.Fatalf("count after clobber = %d", got)
	}
	if CountPattern(st, nil) != 0 {
		t.Fatal("empty pattern")
	}
}

func TestContainsSpansPages(t *testing.T) {
	st := mem.NewStore(3 * mem.PageSize)
	needle := []byte("SPANNING-SECRET")
	st.Write(mem.PageSize-7, needle) // crosses the page boundary
	if !Contains(st, needle) {
		t.Fatal("page-spanning needle missed")
	}
	if Contains(st, []byte("NOT-THERE-AT-ALL")) {
		t.Fatal("false positive")
	}
}

func TestKeyfinderRecoversSchedule(t *testing.T) {
	// Plant a real AES-128 key schedule in a sea of noise, as a generic
	// crypto library would leave in DRAM.
	st := mem.NewStore(1 << 16)
	noise := make([]byte, 1<<16)
	for i := range noise {
		noise[i] = byte(i * 7)
	}
	st.Write(0, noise)
	key := []byte("sixteen byte key")
	ms := &aes.MapStore{}
	if _, err := aes.NewPlaced(ms, key, 0); err != nil {
		t.Fatal(err)
	}
	st.Write(8192+uint64(aes.EncKeysOffset), ms.Data[aes.EncKeysOffset:aes.EncKeysOffset+176])

	keys := FindAESKeys(st)
	if len(keys) != 1 || !bytes.Equal(keys[0], key) {
		t.Fatalf("keyfinder found %d keys: %x", len(keys), keys)
	}
}

func TestKeyfinderNoFalsePositives(t *testing.T) {
	st := mem.NewStore(1 << 18)
	junk := make([]byte, 1<<18)
	for i := range junk {
		junk[i] = byte(i*31 + i>>8)
	}
	st.Write(0, junk)
	if keys := FindAESKeys(st); len(keys) != 0 {
		t.Fatalf("false positives: %x", keys)
	}
}

func TestColdBootVariantsReproduceTable2Shape(t *testing.T) {
	// Fill usable DRAM and iRAM with the pattern, mount each variant, and
	// check the survival ratios land in the paper's bands. A 4 MB DRAM
	// window keeps the test fast; decay is i.i.d. so the ratio is unbiased.
	pattern := []byte{0xDE, 0xAD, 0xBE, 0xEF, 0x5E, 0x17, 0x2E, 0x01}
	fill := func(s *soc.SoC) (dramSlots, iramSlots int) {
		const window = 4 << 20
		regionBase := uint64(s.Prof.DRAMSize) - window // above any boot scribble
		for off := uint64(0); off < window; off += 8 {
			s.DRAM.Store().Write(regionBase+off, pattern)
		}
		base, size := s.UsableIRAM()
		for off := uint64(0); off < size; off += 8 {
			s.IRAM.Write(base+mem.PhysAddr(off), pattern)
		}
		return window / 8, int(size / 8)
	}

	type result struct{ iram, dram float64 }
	run := func(v ColdBootVariant) result {
		s := soc.Tegra3(42)
		dramSlots, iramSlots := fill(s)
		d, err := MountColdBoot(s, v)
		if err != nil {
			t.Fatal(err)
		}
		return result{
			iram: float64(CountPattern(d.IRAM, pattern)) / float64(iramSlots),
			dram: float64(CountPattern(d.DRAM, pattern)) / float64(dramSlots),
		}
	}

	reboot := run(OSReboot)
	if reboot.iram != 1.0 {
		t.Errorf("OS reboot iRAM survival = %.3f, want 1.0", reboot.iram)
	}
	if reboot.dram != 1.0 { // our fill window sits above the scribbled region
		t.Errorf("OS reboot DRAM survival = %.3f, want 1.0 in the un-scribbled window", reboot.dram)
	}

	reflash := run(Reflash)
	if reflash.iram != 0 {
		t.Errorf("reflash iRAM survival = %.3f, want 0 (firmware zeroes iRAM)", reflash.iram)
	}
	if reflash.dram < 0.96 || reflash.dram > 0.99 {
		t.Errorf("reflash DRAM survival = %.4f, want ~0.975", reflash.dram)
	}

	reset := run(HeldReset)
	if reset.iram != 0 {
		t.Errorf("2s reset iRAM survival = %.3f, want 0", reset.iram)
	}
	if reset.dram > 0.005 {
		t.Errorf("2s reset DRAM survival = %.4f, want ~0.001", reset.dram)
	}
}

func TestColdBootBlockedByLockedBootloader(t *testing.T) {
	s := soc.Nexus4(1)
	if _, err := MountColdBoot(s, OSReboot); err == nil {
		t.Fatal("locked bootloader accepted the attacker image")
	}
}

func TestColdBootRecoversGenericAESKeyButNotOnSoC(t *testing.T) {
	// The headline Table 3 cold-boot column: a generic AES key schedule in
	// DRAM is recovered after a reflash; an iRAM schedule is not.
	s := soc.Tegra3(7)
	key := []byte("victim AES key!!")
	g, err := onsoc.NewGeneric(s, soc.DRAMBase+0x200000, key, false)
	if err != nil {
		t.Fatal(err)
	}
	_ = g.EncryptCBC(make([]byte, 16), make([]byte, 16), make([]byte, 16))
	base, size := s.UsableIRAM()
	o, err := onsoc.NewInIRAM(s, onsoc.NewIRAMAlloc(base, size), key)
	if err != nil {
		t.Fatal(err)
	}
	_ = o.EncryptCBC(make([]byte, 16), make([]byte, 16), make([]byte, 16))
	// The device suspends: caches drain to DRAM.
	s.L2.CleanWays(s.L2.AllWaysMask())

	d, err := MountColdBoot(s, Reflash)
	if err != nil {
		t.Fatal(err)
	}
	keys := d.RecoverKeys()
	found := false
	for _, k := range keys {
		if bytes.Equal(k, key) {
			found = true
		}
	}
	if !found {
		t.Fatal("cold boot failed to recover the generic (DRAM) key — baseline broken")
	}
	// Now verify the recovery came from DRAM, not iRAM: iRAM must be clean.
	if len(FindAESKeys(d.IRAM)) != 0 {
		t.Fatal("key schedule survived in iRAM after cold boot")
	}
}

func TestDMAScrapeReadsDRAMButNotProtectedIRAM(t *testing.T) {
	s := soc.Tegra3(3)
	secret := []byte("DRAM-RESIDENT-SECRET")
	s.DRAM.Write(soc.DRAMBase+0x5000, secret)

	base, _ := s.UsableIRAM()
	iramSecret := []byte("IRAM-PROTECTED-KEY!!")
	s.IRAM.Write(base, iramSecret)
	if err := s.TZ.WithSecure(func() error {
		return s.TZ.Protect(tz.Region{Base: base, Size: uint64(len(iramSecret)), NoDMA: true})
	}); err != nil {
		t.Fatal(err)
	}

	a, err := MountDMAScrape(s)
	if err != nil {
		t.Fatal(err)
	}
	if !a.ContainsSecret(secret) {
		t.Fatal("DMA failed to read ordinary DRAM")
	}
	if a.ContainsSecret(iramSecret) {
		t.Fatal("DMA read TrustZone-protected iRAM")
	}
	if len(a.Denied) == 0 {
		t.Fatal("no denial recorded")
	}
	if a.PagesRead() == 0 {
		t.Fatal("no pages read")
	}
}

func TestDMAScrapeReadsUnprotectedIRAM(t *testing.T) {
	// §4.4: without TrustZone protection, iRAM is just like DRAM to DMA.
	s := soc.Nexus4(3) // no TZ available
	base, _ := s.UsableIRAM()
	iramSecret := []byte("UNPROTECTED-IRAM-KEY")
	s.IRAM.Write(base, iramSecret)
	s.Prof.OpenDMAPort = true // attacker reworked the board for port access
	a, err := MountDMAScrape(s)
	if err != nil {
		t.Fatal(err)
	}
	if !a.ContainsSecret(iramSecret) {
		t.Fatal("DMA should reach unprotected iRAM")
	}
}

func TestDMAScrapeDoesNotSeeLockedWay(t *testing.T) {
	s := soc.Tegra3(9)
	locker, err := onsoc.NewWayLocker(s, soc.DRAMBase+0x3000_0000)
	if err != nil {
		t.Fatal(err)
	}
	_, base, _ := locker.LockWay()
	s.CPU.WritePhys(base, []byte("LOCKED-WAY-PLAINTEXT"))
	a, err := MountDMAScrape(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.ContainsSecret([]byte("LOCKED-WAY-PLAINTEXT")) {
		t.Fatal("DMA observed locked-way contents (cache bypass broken)")
	}
}

func TestKeyfinderSurvivesDecayDamage(t *testing.T) {
	// A reflash-grade decay (~0.3% of bytes) damages most 176-byte windows
	// somewhere; the reconstruction must still recover the key, as the
	// cold-boot literature does via schedule redundancy.
	key := []byte("damaged schedule")
	ms := &aes.MapStore{}
	if _, err := aes.NewPlaced(ms, key, 0); err != nil {
		t.Fatal(err)
	}
	recovered := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		st := mem.NewStore(8192)
		st.Write(1024, ms.Data[aes.EncKeysOffset:aes.EncKeysOffset+176])
		// Damage three bytes of the window.
		for j := 0; j < 3; j++ {
			off := uint64(1024 + (trial*53+j*61)%176)
			st.SetByte(off, st.ByteAt(off)^0xFF)
		}
		for _, k := range FindAESKeys(st) {
			if bytes.Equal(k, key) {
				recovered++
			}
		}
	}
	if recovered < trials*8/10 {
		t.Fatalf("recovered in only %d/%d damaged trials", recovered, trials)
	}
}

func TestDMAScrapeRecoversGenericKey(t *testing.T) {
	// The DMA column of Table 3 for the DRAM baseline: a generic AES
	// schedule in DRAM is harvestable over DMA once the cache drains.
	s := soc.Tegra3(5)
	key := []byte("dma-harvested-k!")
	g, err := onsoc.NewGeneric(s, soc.DRAMBase+0x200000, key, false)
	if err != nil {
		t.Fatal(err)
	}
	_ = g.EncryptCBC(make([]byte, 16), make([]byte, 16), make([]byte, 16))
	s.L2.CleanWays(s.L2.AllWaysMask())
	a, err := MountDMAScrape(s)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range a.RecoverKeys() {
		if bytes.Equal(k, key) {
			found = true
		}
	}
	if !found {
		t.Fatal("DMA scrape should recover the generic key schedule")
	}
}

func TestKeyRecoveryCandidateNarrowing(t *testing.T) {
	kr := NewKeyRecovery(0x80000000)
	if kr.CandidatesLeft() != 16*256 {
		t.Fatalf("initial candidates = %d", kr.CandidatesLeft())
	}
	// One word-granular block pins all 16 bytes.
	reads := make([]mem.PhysAddr, 16)
	pt := make([]byte, 16)
	key := byte(0x5A)
	for i := range reads {
		pos := aes.FirstRoundOrder[i]
		idx := pt[pos] ^ key
		reads[i] = 0x80000000 + aes.TeOffset + mem.PhysAddr(4*int(idx))
	}
	if err := kr.AddBlock(pt, reads, 4); err != nil {
		t.Fatal(err)
	}
	if kr.CandidatesLeft() != 16 {
		t.Fatalf("candidates after exact block = %d, want 16", kr.CandidatesLeft())
	}
	got, ok := kr.Key()
	if !ok {
		t.Fatal("key not unique")
	}
	for _, b := range got {
		if b != key {
			t.Fatalf("recovered %x", got)
		}
	}
}

func TestColdBootVariantStrings(t *testing.T) {
	for _, v := range []ColdBootVariant{OSReboot, Reflash, HeldReset, ColdBootVariant(9)} {
		if v.String() == "" {
			t.Fatal("empty variant name")
		}
	}
}

func TestDumpHelpers(t *testing.T) {
	s := soc.Tegra3(11)
	s.DRAM.Write(soc.DRAMBase+0x3F000000, []byte("NEEDLE-IN-DUMP")) // above the boot scribble
	d, err := MountColdBoot(s, OSReboot)
	if err != nil {
		t.Fatal(err)
	}
	if !d.ContainsSecret([]byte("NEEDLE-IN-DUMP")) {
		t.Fatal("needle lost in warm reboot")
	}
	pat := []byte("12345678")
	s.DRAM.Write(soc.DRAMBase+0x3F001000, pat)
	if d.CountPattern(d.DRAM, pat) != 1 {
		t.Fatal("CountPattern through dump broken")
	}
}

// TestBusMonitorCaptureSurvivesBufferReuse: the bus lends monitors the
// transfer's own buffer, so BusMonitor, which keeps its capture, must copy.
// Overwriting the buffers after the transfers must not change what it saw.
func TestBusMonitorCaptureSurvivesBufferReuse(t *testing.T) {
	s := soc.Tegra3(3)
	m, err := AttachBusMonitor(s)
	if err != nil {
		t.Fatal(err)
	}
	src := []byte("on the wire, once")
	s.Bus.WriteFrom("cpu-uncached", soc.DRAMBase, src)
	dst := make([]byte, len(src))
	s.Bus.ReadInto("dma0", soc.DRAMBase, dst)
	copy(src, "overwritten later")
	copy(dst, "overwritten later")
	txs := m.Transactions()
	if len(txs) != 2 {
		t.Fatalf("captured %d transactions, want 2", len(txs))
	}
	for i, tx := range txs {
		if string(tx.Data) != "on the wire, once" {
			t.Fatalf("tx%d now reads %q", i, tx.Data)
		}
	}
	if !m.CapturedData([]byte("wire")) || m.CapturedData([]byte("later")) {
		t.Fatal("CapturedData reads the reused buffers, not the capture")
	}
}

// TestDMAScrapeFindsStraddlingSchedule: a key schedule straddling two DRAM
// pages is recovered on every mount, whatever order the scrape captured its
// pages in.
func TestDMAScrapeFindsStraddlingSchedule(t *testing.T) {
	s := soc.Tegra3(7)
	key := []byte("straddles-pages!")
	ms := &aes.MapStore{}
	if _, err := aes.NewPlaced(ms, key, 0); err != nil {
		t.Fatal(err)
	}
	sched := ms.Data[aes.EncKeysOffset : aes.EncKeysOffset+176]
	filler := make([]byte, mem.PageSize)
	for i := range filler {
		filler[i] = byte(i*7 + 1)
	}
	const at, pages = 0x300000, 16
	for p := uint64(0); p < pages; p++ {
		s.DRAM.Store().Write(at+p*mem.PageSize, filler)
	}
	// Half the schedule ends one page, half starts the next.
	s.DRAM.Store().Write(at+pages/2*mem.PageSize-88, sched)
	for i := 0; i < 20; i++ {
		a, err := MountDMAScrape(s)
		if err != nil {
			t.Fatal(err)
		}
		if !containsKey(a.RecoverKeys(), key) {
			t.Fatalf("mount %d: straddling schedule not recovered from %d pages", i, a.PagesRead())
		}
	}
}
