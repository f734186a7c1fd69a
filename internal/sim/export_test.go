package sim

import "desmask/internal/mem"

// Poke applies job's pokes to m through the routine the one-lane and gang
// paths both set a lane up with.
func Poke(job *Job, m *mem.Memory) error { return job.poke(m) }

// Mirrors reports whether a gang would run a and b on one engine lane.
func Mirrors(a, b *Job) bool { return a.mirrors(b) }
