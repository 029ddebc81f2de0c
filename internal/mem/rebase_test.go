package mem

import (
	"bytes"
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
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
