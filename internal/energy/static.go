package energy

import "desmask/internal/isa"

// Static (data-independent) energy accounting for the block-compiled engine
// (internal/block). The transition-sensitive VecMeter charges two kinds of
// energy: constants that every execution of a micro-op pays regardless of
// operand values (array accesses, decode, register-file ports, ALU base cost,
// and — under dual-rail precharging — the secure datapath's constant-activity
// rails), and transition terms that depend on the data history of each rail.
// Block-compiled runs precompute the constant portion per block; the
// transition terms require per-cycle rail history and are exactly what forces
// a metered run onto the cycle-accurate core.
//
// Every transition term is non-negative, so the static sum is a strict lower
// bound on the metered total of the same run: for any program,
//
//	Σ StaticUOpPJ + Σ squash statics + Cycles·ClockPJ ≤ Probe.TotalPJ
//
// with equality only in the degenerate case of zero switching activity. The
// bound is pinned by tests in internal/block.

// railFullSwingPJ is the constant energy of one precharged dual-rail
// transfer: exactly half of the 64 normal+complementary lines discharge each
// evaluate phase (16 per rail half), independent of the value driven. This is
// vecRail's secure/precharge arm, summed over both components.
func railFullSwingPJ(linePJ float64) float64 { return 32 * linePJ }

// StaticUOpPJ returns the data-independent energy charged for one executed
// (retired) micro-op across all five stages: fetch array, decode and
// register reads, the ALU base cost, the memory array, the register write,
// and — when the op runs secure under dual-rail precharging — the constant
// full-swing cost of every precharged rail it drives. scale is the target's
// ALUOpScale coefficient for the op's class.
func StaticUOpPJ(u *isa.UOp, cfg *Config, scale float64) float64 {
	p := &cfg.Params
	pj := p.IFetchArrayPJ + p.DecodePJ + float64(u.NSrc)*p.RegReadPJ
	if u.Dest != isa.Zero {
		pj += p.RegWritePJ
	}
	if u.Load || u.Store {
		pj += p.MemArrayPJ
	}

	if u.Secure && cfg.DualRailPrecharge {
		// Every rail the op drives runs precharged at constant activity:
		// operand buses and ID/EX latches, result bus and EX/MEM latch, the
		// MEM/WB latch, and for memory ops the address and data buses.
		pj += 2*railFullSwingPJ(p.OpBusLinePJ) + 2*railFullSwingPJ(p.LatchBitPJ)
		pj += railFullSwingPJ(p.ResultBusLinePJ) + railFullSwingPJ(p.LatchBitPJ)
		pj += railFullSwingPJ(p.LatchBitPJ)
		if u.Load || u.Store {
			pj += railFullSwingPJ(p.MemAddrLinePJ) + railFullSwingPJ(p.MemDataLinePJ)
		}
		if u.XorUnit {
			pj += p.XorUnitPJ
		} else {
			pj += 2*p.AluOpPJ*scale + 96*p.ALUTogglePJ
		}
		return pj
	}

	// Insecure (or the no-precharge ablation): only the ALU base cost is
	// data-independent, mirrored onto the complementary rails when they are
	// active (secure op, or the clock-gating ablation). The XOR unit's
	// normal-mode cost is purely transition-driven.
	if !u.XorUnit {
		base := p.AluOpPJ * scale
		if u.Secure || !cfg.ClockGating {
			base *= 2
		}
		pj += base
	}
	return pj
}

// StaticSquashIssuePJ returns the static energy of the ID-stage occupant
// squashed by a taken control transfer: it was fetched (array cost) and
// issued (decode, register reads) before the redirect, but never reached EX.
func StaticSquashIssuePJ(u *isa.UOp, cfg *Config) float64 {
	p := &cfg.Params
	return p.IFetchArrayPJ + p.DecodePJ + float64(u.NSrc)*p.RegReadPJ
}

// StaticSquashFetchPJ returns the static energy of the IF-stage occupant
// squashed by a taken control transfer: fetched in the redirect cycle, never
// issued.
func StaticSquashFetchPJ(cfg *Config) float64 { return cfg.Params.IFetchArrayPJ }
