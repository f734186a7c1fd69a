package sim

import (
	"fmt"

	"desmask/internal/mem"
)

// maskGamma is splitmix64's state increment: the stream's state after k
// draws is its initial state plus k·maskGamma.
const maskGamma = 0x9E3779B97F4A7C15

// MaskStream is a splitmix64 stream: the deterministic source of
// per-execution masks, scrub words and shuffle permutations. Self-contained
// so mask material never depends on library PRNG internals; internal/harness
// draws from it in one fixed order, so a given seed names one memory setup.
type MaskStream struct{ s uint64 }

// NewMaskStream starts a stream at the given seed.
func NewMaskStream(seed int64) *MaskStream {
	return &MaskStream{s: uint64(seed)*maskGamma + 0xD1B54A32D192ED03}
}

// Next64 returns the next 64-bit word of the stream.
func (r *MaskStream) Next64() uint64 {
	r.s += maskGamma
	return mix64(r.s)
}

// Next32 returns the next 32-bit word of the stream.
func (r *MaskStream) Next32() uint32 { return uint32(r.Next64() >> 32) }

// Run names the stream's next words Next32 draws as a MaskRun poked at
// consecutive addresses from addr just before Writes[at] of a job, and
// advances the stream past them in O(1), without drawing them.
func (r *MaskStream) Run(addr uint32, words, at int) MaskRun {
	run := MaskRun{Addr: addr, Words: words, State: r.s, At: at}
	r.s += uint64(words) * maskGamma
	return run
}

// mix64 is splitmix64's output function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// MaskRun is a run of consecutive mask-stream words a job pokes into
// consecutive words of memory: word k goes to Addr+4k and holds the
// stream's (k+1)-th Next32 draw from State. The run is poked after
// Writes[:At] and before Writes[At:]. It names a masked program's
// 4,096-word fresh-mask pool by 32 bytes instead of carrying the words.
// The zero value pokes nothing.
type MaskRun struct {
	Addr  uint32
	Words int
	State uint64
	At    int
}

// Pokes calls yield with every word the job pokes, in application order —
// Writes[:Pool.At], the Pool run, then Writes[Pool.At:] — until yield
// returns false. Pool.At must lie in [0, len(Writes)].
func (j *Job) Pokes(yield func(Write) bool) {
	at := j.Pool.At
	for _, w := range j.Writes[:at] {
		if !yield(w) {
			return
		}
	}
	s := j.Pool.State
	for k := 0; k < j.Pool.Words; k++ {
		s += maskGamma
		if !yield(Write{Addr: j.Pool.Addr + uint32(4*k), Val: uint32(mix64(s) >> 32)}) {
			return
		}
	}
	for _, w := range j.Writes[at:] {
		if !yield(w) {
			return
		}
	}
}

// poke applies the job's pokes to a lane's memory; the one-lane and the
// gang paths both set a job up through it.
func (j *Job) poke(m *mem.Memory) error {
	if j.Pool.At < 0 || j.Pool.At > len(j.Writes) {
		return fmt.Errorf("sim: mask run at write %d of %d", j.Pool.At, len(j.Writes))
	}
	var err error
	j.Pokes(func(w Write) bool {
		err = m.StoreWord(w.Addr, w.Val)
		return err == nil
	})
	return err
}
