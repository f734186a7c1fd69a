package experiments_test

import (
	"fmt"

	"desmask/internal/compiler"
	"desmask/internal/experiments"
)

// ExampleComparePolicies reproduces the paper's §4.3 energy ordering.
func ExampleComparePolicies() {
	rep, err := experiments.ComparePolicies(0x133457799BBCDFF1, 0x0123456789ABCDEF,
		[]compiler.Policy{compiler.PolicyNone, compiler.PolicySelective, compiler.PolicyAllSecure})
	if err != nil {
		panic(err)
	}
	none, _ := rep.Row(compiler.PolicyNone)
	sel, _ := rep.Row(compiler.PolicySelective)
	all, _ := rep.Row(compiler.PolicyAllSecure)
	fmt.Println("ordering holds:", none.TotalUJ < sel.TotalUJ && sel.TotalUJ < all.TotalUJ)
	fmt.Printf("full dual-rail costs %.1fx the original\n", all.TotalUJ/none.TotalUJ)
	// Output:
	// ordering holds: true
	// full dual-rail costs 1.8x the original
}
