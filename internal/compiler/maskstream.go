package compiler

// MaskStream is a splitmix64 stream: the deterministic source of
// per-execution masks, scrub words and shuffle permutations. Self-contained
// so mask material never depends on library PRNG internals; internal/harness
// draws from it in one fixed order, so a given seed names one memory setup.
type MaskStream struct{ s uint64 }

// NewMaskStream starts a stream at the given seed.
func NewMaskStream(seed int64) *MaskStream {
	return &MaskStream{s: uint64(seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03}
}

// Next64 returns the next 64-bit word of the stream.
func (r *MaskStream) Next64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Next32 returns the next 32-bit word of the stream.
func (r *MaskStream) Next32() uint32 { return uint32(r.Next64() >> 32) }
