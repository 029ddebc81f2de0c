package mem

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

// storesEqual compares full contents over the union of both touched sets.
func storesEqual(t *testing.T, a, b *Store) {
	t.Helper()
	seen := map[uint64]bool{}
	for _, s := range []*Store{a, b} {
		for _, off := range s.TouchedPages() {
			seen[off] = true
		}
	}
	pa, pb := make([]byte, PageSize), make([]byte, PageSize)
	for off := range seen {
		a.Read(off, pa)
		b.Read(off, pb)
		if !bytes.Equal(pa, pb) {
			t.Fatalf("page %#x differs after rebase", off)
		}
	}
}

func TestRebasePreservesContents(t *testing.T) {
	base := NewStore(1 << 20)
	base.Write(0, []byte("boot image page zero"))
	base.Write(3*PageSize, []byte("boot page three"))
	base.Write(7*PageSize+100, []byte("boot page seven"))
	base.Seal()

	fork := base.Fork()
	fork.Write(3*PageSize, []byte("DIVERGED"))       // shadow a base page
	fork.Write(12*PageSize, []byte("fresh private")) // page the base never touched
	fork.SetByte(7*PageSize+100, 'b')                // rewrite a base byte with its own value
	want := NewStore(1 << 20)
	for _, off := range fork.TouchedPages() {
		buf := make([]byte, PageSize)
		fork.Read(off, buf)
		want.Write(off, buf)
	}

	n := fork.Rebase(base)
	storesEqual(t, fork, want)
	// Page 3 diverged, page 12 is new; page 0 and the rewritten-identical
	// page 7 must have fallen through to the shared base.
	if n != 2 {
		t.Fatalf("delta pages = %d, want 2", n)
	}
	// Writes after the rebase must not bleed into the shared base.
	fork.SetByte(0, 0xEE)
	if base.ByteAt(0) == 0xEE {
		t.Fatal("rebase aliased a shared base page into the private layer")
	}
}

func TestRebaseShadowsZeroedBasePages(t *testing.T) {
	base := NewStore(1 << 20)
	base.Write(5*PageSize, []byte("survives in base"))
	base.Seal()

	fork := base.Fork()
	fork.Write(2*PageSize, []byte("doomed"))
	fork.ZeroAll() // power-cut style wipe: all-zero content, no base layer
	fork.Write(9*PageSize, []byte("post-wipe"))

	fork.Rebase(base)
	buf := make([]byte, 16)
	fork.Read(5*PageSize, buf)
	if !bytes.Equal(buf, make([]byte, 16)) {
		t.Fatalf("zeroed base page resurrected after rebase: %q", buf)
	}
	fork.Read(9*PageSize, buf[:9])
	if string(buf[:9]) != "post-wipe" {
		t.Fatalf("post-wipe write lost: %q", buf[:9])
	}
}

// TestRebaseQuick drives random write/fork/seal/zero traffic against a
// mirror store, rebases, and demands byte-identical contents plus
// write isolation from the base.
func TestRebaseQuick(t *testing.T) {
	f := func(ops []uint32) bool {
		base := NewStore(64 * PageSize)
		for i := 0; i < 8; i++ {
			base.Write(uint64(i*5*PageSize%int(base.Size()-8)), []byte{byte(i), 1, 2, 3})
		}
		base.Seal()
		s := base.Fork()
		mirror := NewStore(base.Size())
		for _, off := range base.TouchedPages() {
			buf := make([]byte, PageSize)
			base.Read(off, buf)
			mirror.Write(off, buf)
		}
		for _, op := range ops {
			off := uint64(op) % (s.Size() - 4)
			val := []byte{byte(op >> 8), byte(op >> 16), byte(op >> 24), byte(op)}
			switch op % 5 {
			case 0, 1, 2:
				s.Write(off, val)
				mirror.Write(off, val)
			case 3:
				s.Seal()
			case 4:
				if op%31 == 4 { // rare: wipe both sides
					s.ZeroAll()
					mirror.ZeroAll()
				}
			}
		}
		s.Rebase(base)
		storesEqual(t, s, mirror)
		rebaseCycles(t, base, s, ops)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// image reads a store's whole contents.
func image(s *Store) []byte {
	b := make([]byte, s.Size())
	s.Read(0, b)
	return b
}

// rebaseCycles runs repeated park/hydrate cycles from a rebased store —
// fork, write, rebase — then writes straight into the last rebased store
// and wipes another. Rebase keeps frozen pages by reference, so after each
// step the base, the previously parked store and a never-written sibling
// fork must all still read their old bytes.
func rebaseCycles(t *testing.T, base, parked *Store, ops []uint32) {
	t.Helper()
	baseImg := image(base)
	unchanged := func(step string, parked, sib *Store, parkedImg []byte) {
		t.Helper()
		if !bytes.Equal(image(base), baseImg) {
			t.Fatalf("%s: the base changed", step)
		}
		if !bytes.Equal(image(parked), parkedImg) {
			t.Fatalf("%s: the previously parked store changed", step)
		}
		if !bytes.Equal(image(sib), parkedImg) {
			t.Fatalf("%s: a sibling fork changed", step)
		}
	}
	for cycle := 0; cycle < 3; cycle++ {
		parkedImg := image(parked)
		sib := parked.Fork()
		live := parked.Fork()
		for i, op := range ops {
			if i%3 == cycle {
				live.Write(uint64(op)%(live.Size()-4), []byte{byte(cycle), byte(op), 0xC0, 0xDE})
			}
		}
		want := image(live)
		live.Rebase(base)
		if !bytes.Equal(image(live), want) {
			t.Fatalf("cycle %d: rebase changed the store's contents", cycle)
		}
		unchanged(fmt.Sprintf("cycle %d", cycle), parked, sib, parkedImg)

		if cycle == 2 {
			// Write straight into the rebased store, reading each page
			// first so the page cache holds it, and wipe a second one.
			wiped := parked.Fork()
			wiped.Rebase(base)
			for _, off := range live.TouchedPages() {
				var b [1]byte
				live.Read(off+7, b[:])
				live.SetByte(off+7, b[0]^0xFF)
			}
			unchanged("direct write", parked, sib, parkedImg)
			wiped.ZeroAll()
			wiped.Write(PageSize, []byte("after wipe"))
			unchanged("zero after rebase", parked, sib, parkedImg)
			if n := wiped.Rebase(base); n == 0 && len(base.TouchedPages()) > 0 {
				t.Fatal("a wiped store rebased to no delta against a non-empty base")
			}
			unchanged("rebase after wipe", parked, sib, parkedImg)
		}
		parked = live
	}
}
