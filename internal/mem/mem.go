// Package mem provides the word-addressable data/instruction memory of the
// simulated smart-card system. The memory array itself is treated as
// data-independent for energy purposes (per the paper, "the memory access
// itself is not sensitive to the data being read due to the differential
// nature of the memory reads"); the data-dependent energy of a transfer is
// charged on the buses by package energy.
package mem

import "fmt"

const pageWords = 1024

// Memory is a sparse, paged, word-addressable memory. The zero value is an
// empty memory ready for use.
type Memory struct {
	pages map[uint32]*[pageWords]uint32
	// last caches the most recently touched page, so a run of accesses to
	// one page skips the map; pages are never freed, so it never dangles.
	last    *[pageWords]uint32
	lastIdx uint32
	// Reads and Writes count word accesses, for reporting.
	Reads, Writes uint64
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: map[uint32]*[pageWords]uint32{}}
}

// Reset clears every word back to zero while retaining page allocations, so
// a pooled simulation worker can reuse the memory without reallocating, and
// zeroes the access counters.
func (m *Memory) Reset() {
	for _, p := range m.pages {
		*p = [pageWords]uint32{}
	}
	m.Reads, m.Writes = 0, 0
}

// AlignmentError reports a non-word-aligned access.
type AlignmentError struct {
	Addr uint32
	Op   string
}

func (e *AlignmentError) Error() string {
	return fmt.Sprintf("mem: misaligned %s at %#x", e.Op, e.Addr)
}

func (m *Memory) page(addr uint32, create bool) *[pageWords]uint32 {
	idx := addr / 4 / pageWords
	if m.last != nil && m.lastIdx == idx {
		return m.last
	}
	if m.pages == nil {
		if !create {
			return nil
		}
		m.pages = map[uint32]*[pageWords]uint32{}
	}
	p := m.pages[idx]
	if p == nil && create {
		p = new([pageWords]uint32)
		m.pages[idx] = p
	}
	if p != nil {
		m.last, m.lastIdx = p, idx
	}
	return p
}

// LoadWord reads the 32-bit word at the given byte address.
func (m *Memory) LoadWord(addr uint32) (uint32, error) {
	if addr%4 != 0 {
		return 0, &AlignmentError{addr, "load"}
	}
	m.Reads++
	p := m.page(addr, false)
	if p == nil {
		return 0, nil
	}
	return p[addr/4%pageWords], nil
}

// StoreWord writes the 32-bit word at the given byte address.
func (m *Memory) StoreWord(addr, v uint32) error {
	if addr%4 != 0 {
		return &AlignmentError{addr, "store"}
	}
	m.Writes++
	m.page(addr, true)[addr/4%pageWords] = v
	return nil
}

// LoadImage copies words into memory starting at base (byte address).
func (m *Memory) LoadImage(base uint32, words []uint32) error {
	if base%4 != 0 {
		return &AlignmentError{base, "image load"}
	}
	for i, w := range words {
		if err := m.StoreWord(base+uint32(4*i), w); err != nil {
			return err
		}
	}
	// Image loading is initialisation, not simulated traffic.
	m.Writes -= uint64(len(words))
	return nil
}

// ReadWords copies n words starting at base into a fresh slice, without
// counting as simulated traffic.
func (m *Memory) ReadWords(base uint32, n int) ([]uint32, error) {
	out := make([]uint32, n)
	saved := m.Reads
	for i := range out {
		w, err := m.LoadWord(base + uint32(4*i))
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	m.Reads = saved
	return out, nil
}
