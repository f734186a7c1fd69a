package energy

import (
	"fmt"
	"math/bits"
	"strings"
)

// Component identifies one energy sink of the processor.
type Component int

// Components of the modeled processor.
const (
	CompClock         Component = iota // clock tree + control
	CompFetch                          // instruction store + instruction bus
	CompDecode                         // decode logic
	CompRegFile                        // register file ports
	CompALU                            // ALU + dedicated XOR unit
	CompOpBus                          // operand buses (regfile -> EX)
	CompResultBus                      // result bus (EX -> MEM/WB)
	CompPipeReg                        // pipeline registers
	CompMemBus                         // memory address + data buses
	CompMemArray                       // data memory array
	CompComplementary                  // complementary rails + dummy loads (secure mode)
	NumComponents
)

var componentNames = [NumComponents]string{
	"clock", "fetch", "decode", "regfile", "alu",
	"opbus", "resultbus", "pipereg", "membus", "memarray", "complementary",
}

// String returns the short component name.
func (c Component) String() string {
	if c >= 0 && c < NumComponents {
		return componentNames[c]
	}
	return fmt.Sprintf("component?%d", int(c))
}

// CycleEnergy is the energy consumed during one clock cycle, in picojoules.
type CycleEnergy struct {
	Total float64
	By    [NumComponents]float64
}

// Add accumulates o into e.
func (e *CycleEnergy) Add(o CycleEnergy) {
	e.AddFrom(&o)
}

// AddFrom accumulates *o into e without copying the component array.
func (e *CycleEnergy) AddFrom(o *CycleEnergy) {
	e.Total += o.Total
	for i := range e.By {
		e.By[i] += o.By[i]
	}
}

// String renders the non-zero components.
func (e CycleEnergy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.2fpJ", e.Total)
	sep := " ("
	for c := Component(0); c < NumComponents; c++ {
		if e.By[c] != 0 {
			fmt.Fprintf(&b, "%s%s=%.2f", sep, c, e.By[c])
			sep = " "
		}
	}
	if sep != " (" {
		b.WriteString(")")
	}
	return b.String()
}

// prechargeValue is the bus state after a precharged (secure) transfer: all
// lines charged high. Subsequent insecure transfers therefore depend only on
// their own value, never on the secure data that preceded them.
const prechargeValue uint32 = 0xffffffff

// coupling returns the inter-wire coupling energy of driving v, which depends
// on the pattern of adjacent differing bits and is NOT masked by dual-rail
// operation (paper §5).
func coupling(v uint32, linePJ float64) float64 {
	return float64(bits.OnesCount32(v^(v<<1))) * linePJ
}
