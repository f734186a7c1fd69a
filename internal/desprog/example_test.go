package desprog_test

import (
	"fmt"

	"desmask/internal/compiler"
	"desmask/internal/des"
	"desmask/internal/desprog"
)

// ExampleMachine demonstrates the end-to-end flow: build the selectively
// masked DES machine, encrypt one block on the simulated smart card, and
// check it against the reference implementation.
func ExampleMachine() {
	m, err := desprog.New(compiler.PolicySelective)
	if err != nil {
		panic(err)
	}
	cipher, _, done, err := m.Encrypt(0x133457799BBCDFF1, 0x0123456789ABCDEF, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("cipher %016X\n", cipher)
	fmt.Println("verified:", done && cipher == des.Encrypt(0x133457799BBCDFF1, 0x0123456789ABCDEF))
	// Output:
	// cipher 85E813540F0AB405
	// verified: true
}
