package attack

import (
	"bytes"
	"fmt"

	"sentry/internal/mem"
	"sentry/internal/soc"
)

// DMAScrape is the FireWire-class attack (§3.1): program a DMA engine over
// a peripheral interface and read arbitrary physical memory while the
// device runs, PIN lock notwithstanding. It needs no reboot, so remanence
// is irrelevant — only address-range protection (TrustZone) and the
// cache-bypass property stand between the attacker and memory.
type DMAScrape struct {
	s *soc.SoC
	// Regions the controller refused (TrustZone-protected).
	Denied []mem.PhysAddr
	data   map[mem.PhysAddr][]byte
}

// MountDMAScrape reads every materialised DRAM page plus the full iRAM over
// DMA, recording what was denied. It fails with soc.ErrUnsupported on
// platforms that expose no DMA-capable peripheral port to an attacker
// (locked production devices).
func MountDMAScrape(s *soc.SoC) (*DMAScrape, error) {
	if !s.Prof.OpenDMAPort {
		return nil, fmt.Errorf("attack: %s exposes no open DMA port: %w", s.Prof.Name, soc.ErrUnsupported)
	}
	probeEvent(s, "dma-scrape", 0)
	a := &DMAScrape{s: s, data: make(map[mem.PhysAddr][]byte)}
	for _, off := range s.DRAM.Store().TouchedPages() {
		a.grab(soc.DRAMBase + mem.PhysAddr(off))
	}
	for off := uint64(0); off < s.Prof.IRAMSize; off += mem.PageSize {
		a.grab(soc.IRAMBase + mem.PhysAddr(off))
	}
	return a, nil
}

func (a *DMAScrape) grab(addr mem.PhysAddr) {
	buf, err := a.s.DMA.ReadFromMem(addr, mem.PageSize)
	if err != nil {
		a.Denied = append(a.Denied, addr)
		return
	}
	a.data[addr] = buf
}

// ContainsSecret reports whether the scrape captured the needle.
func (a *DMAScrape) ContainsSecret(needle []byte) bool {
	for _, page := range a.data {
		if bytes.Index(page, needle) >= 0 {
			return true
		}
	}
	return false
}

// RecoverKeys runs the AES keyfinder over the scraped pages, each placed at
// its physical address in one sparse image from iRAM's base to DRAM's end.
// Pages adjacent in memory stay adjacent, so a schedule straddling two of
// them is found, and no others are: the result is exactly what the
// attacker read, whatever order the pages were captured in.
func (a *DMAScrape) RecoverKeys() [][]byte {
	end := soc.DRAMBase + mem.PhysAddr(a.s.Prof.DRAMSize)
	st := mem.NewStore(uint64(end - soc.IRAMBase))
	for addr, page := range a.data {
		st.Write(uint64(addr-soc.IRAMBase), page)
	}
	return FindAESKeys(st)
}

// PagesRead returns how many pages the scrape captured.
func (a *DMAScrape) PagesRead() int { return len(a.data) }
