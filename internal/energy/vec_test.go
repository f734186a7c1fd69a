package energy

import (
	"math/bits"
	"math/rand"
	"testing"
)

// vecCycle is one randomly generated cycle of gang activity: shared control
// (which stages fire, the secure bits, ALU route/scale, fetched word, number
// of read ports, whether WB writes a register) plus per-lane data values.
type vecCycle struct {
	ev       LaneEvents // control flags + EXScale; data fields unused here
	regWrite bool
	issue    bool
	nSrc     int
	fetch    bool
	word     uint32
	data     []LaneEvents // per-lane data values (control fields copied from ev)
}

func randCycles(rng *rand.Rand, width, n int) []vecCycle {
	cycles := make([]vecCycle, n)
	for i := range cycles {
		c := &cycles[i]
		c.ev = LaneEvents{
			WB:        rng.Intn(2) == 0,
			WBSecure:  rng.Intn(3) == 0,
			Mem:       rng.Intn(3) == 0,
			MemSecure: rng.Intn(3) == 0,
			EX:        rng.Intn(4) != 0,
			EXSecure:  rng.Intn(3) == 0,
			EXXor:     rng.Intn(4) == 0,
			EXScale:   []float64{1, 1, 0.85, 1.25}[rng.Intn(4)],
		}
		c.regWrite = c.ev.WB && rng.Intn(4) != 0
		c.issue = rng.Intn(3) != 0
		c.nSrc = rng.Intn(3)
		c.fetch = rng.Intn(3) != 0
		c.word = rng.Uint32()
		c.data = make([]LaneEvents, width)
		for l := range c.data {
			d := c.ev
			d.WBVal = rng.Uint32()
			d.MemAddr = rng.Uint32()
			d.MemData = rng.Uint32()
			d.A, d.B, d.R = rng.Uint32(), rng.Uint32(), rng.Uint32()
			c.data[l] = d
		}
	}
	return cycles
}

// refModel is a test-only oracle: the straightforward scalar accounting
// the VecMeter's split shared/per-lane arithmetic must reproduce to the bit.
// Every charge is added to its component in stage order and the total is
// the component sum in index order.
type refModel struct {
	cfg                                   Config
	by                                    [NumComponents]float64
	fetch, opA, opB, res, mA, mD          uint32
	lA, lB, lR, lW, aluA, aluB, aluR, xor uint32
}

func (m *refModel) rail(prev *uint32, v uint32, secure bool, linePJ float64, c Component) {
	var n, comp float64
	switch {
	case secure && m.cfg.DualRailPrecharge:
		*prev = prechargeValue
		n, comp = 16*linePJ, 16*linePJ
	default:
		n = float64(bits.OnesCount32(*prev^v)) * linePJ
		*prev = v
		if secure || !m.cfg.ClockGating {
			comp = n
		}
	}
	m.by[c] += n
	m.by[CompComplementary] += comp
	if m.cfg.InterWireCoupling {
		m.by[c] += coupling(v, m.cfg.Params.CouplingPJ)
	}
}

func (m *refModel) alu(scale float64, a, b, r uint32, isXor, secure bool) {
	p := m.cfg.Params
	var e float64
	switch {
	case isXor && secure && m.cfg.DualRailPrecharge:
		m.by[CompALU] += p.XorUnitPJ / 2
		m.by[CompComplementary] += p.XorUnitPJ / 2
		m.xor = prechargeValue
		return
	case isXor:
		e = float64(bits.OnesCount32(m.xor^r)) / 32 * p.XorUnitPJ
		m.xor = r
	case secure && m.cfg.DualRailPrecharge:
		c := 2*p.AluOpPJ*scale + 96*p.ALUTogglePJ
		m.by[CompALU] += c / 2
		m.by[CompComplementary] += c / 2
		m.aluA, m.aluB, m.aluR = prechargeValue, prechargeValue, prechargeValue
		return
	default:
		t := bits.OnesCount32(m.aluA^a) + bits.OnesCount32(m.aluB^b) + bits.OnesCount32(m.aluR^r)
		m.aluA, m.aluB, m.aluR = a, b, r
		e = p.AluOpPJ*scale + float64(t)*p.ALUTogglePJ
	}
	m.by[CompALU] += e
	if secure || !m.cfg.ClockGating {
		m.by[CompComplementary] += e
	}
}

// driveScalar plays one lane's view of a cycle into the oracle in the
// pipeline's stage order (WB, MEM, EX, ID, IF) and returns the cycle energy.
func driveScalar(m *refModel, c *vecCycle, lane int) CycleEnergy {
	d := &c.data[lane]
	p := m.cfg.Params
	m.by = [NumComponents]float64{}
	m.by[CompClock] += p.ClockPJ
	if c.ev.WB {
		m.rail(&m.lW, d.WBVal, c.ev.WBSecure, p.LatchBitPJ, CompPipeReg)
		if c.regWrite {
			m.by[CompRegFile] += p.RegWritePJ
		}
	}
	if c.ev.Mem {
		m.rail(&m.mA, d.MemAddr, c.ev.MemSecure, p.MemAddrLinePJ, CompMemBus)
		m.rail(&m.mD, d.MemData, c.ev.MemSecure, p.MemDataLinePJ, CompMemBus)
		m.by[CompMemArray] += p.MemArrayPJ
	}
	if c.ev.EX {
		sec := c.ev.EXSecure
		m.rail(&m.opA, d.A, sec, p.OpBusLinePJ, CompOpBus)
		m.rail(&m.opB, d.B, sec, p.OpBusLinePJ, CompOpBus)
		m.rail(&m.lA, d.A, sec, p.LatchBitPJ, CompPipeReg)
		m.rail(&m.lB, d.B, sec, p.LatchBitPJ, CompPipeReg)
		m.alu(c.ev.EXScale, d.A, d.B, d.R, c.ev.EXXor, sec)
		m.rail(&m.res, d.R, sec, p.ResultBusLinePJ, CompResultBus)
		m.rail(&m.lR, d.R, sec, p.LatchBitPJ, CompPipeReg)
	}
	if c.issue {
		m.by[CompDecode] += p.DecodePJ
		m.by[CompRegFile] += float64(c.nSrc) * p.RegReadPJ
	}
	if c.fetch {
		m.by[CompFetch] += p.IFetchArrayPJ
		m.rail(&m.fetch, c.word, false, p.FetchLinePJ, CompFetch)
	}
	e := CycleEnergy{By: m.by}
	for _, v := range e.By {
		e.Total += v
	}
	return e
}

// driveVecShared plays a cycle's shared control into the VecMeter, leaving it
// ready for LaneCycle calls.
func driveVecShared(v *VecMeter, c *vecCycle) {
	v.BeginCycle()
	if c.ev.WB && c.regWrite {
		v.RegWrite()
	}
	if c.ev.Mem {
		v.MemArray()
	}
	if c.issue {
		v.Decode()
		v.RegRead(c.nSrc)
	}
	if c.fetch {
		v.Fetch(c.word)
	}
	v.EndShared()
}

func allConfigs() []Config {
	var cfgs []Config
	for _, pre := range []bool{true, false} {
		for _, gate := range []bool{true, false} {
			for _, coup := range []bool{true, false} {
				cfg := DefaultConfig()
				cfg.DualRailPrecharge = pre
				cfg.ClockGating = gate
				cfg.InterWireCoupling = coup
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// TestVecMeterMatchesScalarModel drives N scalar oracles (one per lane) and
// one VecMeter through identical random event streams and requires the
// per-cycle totals and every per-component value to be bit-identical, for
// every Config ablation.
func TestVecMeterMatchesScalarModel(t *testing.T) {
	const width, nCycles = 5, 400
	for ci, cfg := range allConfigs() {
		rng := rand.New(rand.NewSource(int64(1000 + ci)))
		cycles := randCycles(rng, width, nCycles)

		scalars := make([]*refModel, width)
		for l := range scalars {
			scalars[l] = &refModel{cfg: cfg}
		}
		vec := NewVecMeter(cfg, width)
		vec.Reset(width)

		for i := range cycles {
			c := &cycles[i]
			driveVecShared(vec, c)
			for l := 0; l < width; l++ {
				want := driveScalar(scalars[l], c, l)
				got := vec.LaneCycle(l, &c.data[l])
				if got != want.Total {
					t.Fatalf("cfg %d cycle %d lane %d: total %v != scalar %v", ci, i, l, got, want.Total)
				}
				if vec.LastPJ(l) != want.Total {
					t.Fatalf("cfg %d cycle %d lane %d: LastPJ %v != %v", ci, i, l, vec.LastPJ(l), want.Total)
				}
				var by CycleEnergy
				vec.EndCycleInto(l, &by)
				if by != want {
					t.Fatalf("cfg %d cycle %d lane %d: breakdown %+v != scalar %+v", ci, i, l, by, want)
				}
			}
		}
	}
}

// TestVecMeterQuietExact checks that quiet (unmetered) cycles advance rail
// history exactly: two meters play the same stream, one metering everything
// and one quieting a prefix, and every metered cycle after the prefix must be
// bit-identical between them.
func TestVecMeterQuietExact(t *testing.T) {
	const width, nCycles, quiet = 3, 300, 120
	for ci, cfg := range allConfigs() {
		rng := rand.New(rand.NewSource(int64(2000 + ci)))
		cycles := randCycles(rng, width, nCycles)

		loud := NewVecMeter(cfg, width)
		loud.Reset(width)
		mixed := NewVecMeter(cfg, width)
		mixed.Reset(width)

		for i := range cycles {
			c := &cycles[i]
			driveVecShared(loud, c)
			if i < quiet {
				if c.fetch {
					mixed.FetchQuiet(c.word)
				}
				for l := 0; l < width; l++ {
					loud.LaneCycle(l, &c.data[l])
					mixed.LaneCycleQuiet(l, &c.data[l])
				}
				continue
			}
			driveVecShared(mixed, c)
			for l := 0; l < width; l++ {
				want := loud.LaneCycle(l, &c.data[l])
				got := mixed.LaneCycle(l, &c.data[l])
				if got != want {
					t.Fatalf("cfg %d cycle %d lane %d: quiet-warmed %v != loud %v", ci, i, l, got, want)
				}
			}
		}
	}
}

// TestVecMeterResetFresh checks a Reset meter meters bit-identically to a new
// one after a run has polluted every rail.
func TestVecMeterResetFresh(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(7))
	const width = 4
	cycles := randCycles(rng, width, 50)

	run := func(v *VecMeter) []float64 {
		v.Reset(width)
		var out []float64
		for i := range cycles {
			c := &cycles[i]
			driveVecShared(v, c)
			for l := 0; l < width; l++ {
				out = append(out, v.LaneCycle(l, &c.data[l]))
			}
		}
		return out
	}

	used := NewVecMeter(cfg, width)
	first := run(used)
	second := run(used) // after Reset inside run
	fresh := run(NewVecMeter(cfg, width))
	for i := range first {
		if first[i] != second[i] || first[i] != fresh[i] {
			t.Fatalf("sample %d: first %v second %v fresh %v", i, first[i], second[i], fresh[i])
		}
	}
}
