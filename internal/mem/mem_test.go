package mem

import (
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New()
	if err := m.StoreWord(0x4000, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v, err := m.LoadWord(0x4000)
	if err != nil || v != 0xdeadbeef {
		t.Fatalf("LoadWord = %#x, %v", v, err)
	}
}

func TestZeroFill(t *testing.T) {
	m := New()
	v, err := m.LoadWord(0x1_0000)
	if err != nil || v != 0 {
		t.Fatalf("uninitialised load = %#x, %v; want 0, nil", v, err)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var m Memory
	if err := m.StoreWord(8, 7); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.LoadWord(8); v != 7 {
		t.Fatalf("zero-value Memory store/load = %d", v)
	}
	var m2 Memory
	if v, err := m2.LoadWord(8); err != nil || v != 0 {
		t.Fatalf("zero-value Memory load = %d, %v", v, err)
	}
}

func TestMisaligned(t *testing.T) {
	m := New()
	if _, err := m.LoadWord(2); err == nil {
		t.Error("misaligned load succeeded")
	}
	if err := m.StoreWord(5, 1); err == nil {
		t.Error("misaligned store succeeded")
	}
	if err := m.LoadImage(1, []uint32{1}); err == nil {
		t.Error("misaligned image succeeded")
	}
}

func TestAccessCounters(t *testing.T) {
	m := New()
	_ = m.StoreWord(0, 1)
	_, _ = m.LoadWord(0)
	_, _ = m.LoadWord(4)
	if m.Writes != 1 || m.Reads != 2 {
		t.Errorf("counters = %d writes, %d reads; want 1, 2", m.Writes, m.Reads)
	}
	if err := m.LoadImage(0x100, []uint32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if m.Writes != 1 {
		t.Errorf("image load counted as traffic: %d writes", m.Writes)
	}
	if _, err := m.ReadWords(0x100, 3); err != nil {
		t.Fatal(err)
	}
	if m.Reads != 2 {
		t.Errorf("ReadWords counted as traffic: %d reads", m.Reads)
	}
}

func TestLoadImageAndReadWords(t *testing.T) {
	m := New()
	img := []uint32{10, 20, 30, 40}
	if err := m.LoadImage(0x2000, img); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadWords(0x2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range img {
		if got[i] != w {
			t.Errorf("word %d = %d, want %d", i, got[i], w)
		}
	}
}

func TestPageBoundaries(t *testing.T) {
	m := New()
	// Straddle a page boundary (pages are 1024 words = 4096 bytes).
	for _, addr := range []uint32{4092, 4096, 4100} {
		if err := m.StoreWord(addr, addr); err != nil {
			t.Fatal(err)
		}
	}
	for _, addr := range []uint32{4092, 4096, 4100} {
		if v, _ := m.LoadWord(addr); v != addr {
			t.Errorf("word at %#x = %#x", addr, v)
		}
	}
}

func TestStoreLoadProperty(t *testing.T) {
	m := New()
	f := func(addr, v uint32) bool {
		addr &^= 3
		if err := m.StoreWord(addr, v); err != nil {
			return false
		}
		got, err := m.LoadWord(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestLastPageCache drives interleaved runs over a few pages — runs that
// straddle page boundaries, alternation between pages, loads of pages never
// stored to, and Reset then reuse — against a plain map model. The
// last-page cache must be invisible: same words, same counters.
func TestLastPageCache(t *testing.T) {
	var m Memory // the zero value, with the cache empty
	model := map[uint32]uint32{}
	var reads, writes uint64
	check := func(addr uint32) {
		t.Helper()
		v, err := m.LoadWord(addr)
		reads++
		if err != nil || v != model[addr] {
			t.Fatalf("word at %#x = %#x, %v; want %#x", addr, v, err, model[addr])
		}
	}
	store := func(addr, v uint32) {
		t.Helper()
		if err := m.StoreWord(addr, v); err != nil {
			t.Fatal(err)
		}
		writes++
		model[addr] = v
	}
	const page = 4 * pageWords
	check(3 * page) // a miss on an empty memory creates nothing
	if len(m.pages) != 0 {
		t.Fatalf("a load created %d pages", len(m.pages))
	}
	for round := uint32(0); round < 3; round++ {
		// A run straddling the page 0/1 boundary.
		for a := uint32(page - 40); a < page+40; a += 4 {
			store(a, a^round)
		}
		// Alternate between pages 1 and 5, each store evicting the cache.
		for i := uint32(0); i < 64; i++ {
			store(page+4*i, i+round)
			store(5*page+4*i, ^i)
			check(page + 4*i)
		}
		check(9 * page) // an untouched page between cached ones reads zero
		for a := range model {
			check(a)
		}
		got, err := m.ReadWords(page-40, 20)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if a := uint32(page - 40 + 4*i); v != model[a] {
				t.Fatalf("ReadWords word %#x = %#x, want %#x", a, v, model[a])
			}
		}
		if m.Reads != reads || m.Writes != writes {
			t.Fatalf("counters %d reads, %d writes; want %d, %d", m.Reads, m.Writes, reads, writes)
		}
		// Reset zeroes every page in place, the cached one included.
		pages := len(m.pages)
		m.Reset()
		model, reads, writes = map[uint32]uint32{}, 0, 0
		check(page)
		check(5 * page)
		if len(m.pages) != pages {
			t.Fatalf("Reset changed the page count %d -> %d", pages, len(m.pages))
		}
	}
}

// TestAlignmentErrorsUnchanged pins the error values of misaligned accesses,
// which must be reported before any page (cached or not) is touched.
func TestAlignmentErrorsUnchanged(t *testing.T) {
	m := New()
	_ = m.StoreWord(0x40, 1) // warm the cache on the page being probed
	_, lerr := m.LoadWord(0x42)
	serr := m.StoreWord(0x45, 1)
	ierr := m.LoadImage(0x41, []uint32{1})
	for _, tc := range []struct {
		err  error
		addr uint32
		op   string
	}{{lerr, 0x42, "load"}, {serr, 0x45, "store"}, {ierr, 0x41, "image load"}} {
		ae, ok := tc.err.(*AlignmentError)
		if !ok || ae.Addr != tc.addr || ae.Op != tc.op {
			t.Errorf("got %v, want AlignmentError{%#x, %q}", tc.err, tc.addr, tc.op)
		}
	}
	if m.Reads != 0 || m.Writes != 1 {
		t.Errorf("misaligned accesses counted: %d reads, %d writes", m.Reads, m.Writes)
	}
}
