// Package desmask is a full reproduction of "Masking the Energy Behavior of
// DES Encryption" (Saputra, Vijaykrishnan, Kandemir, Irwin, Brooks, Kim,
// Zhang — DATE 2003): a smart-card processor simulator whose ISA is extended
// with secure (dual-rail, precharged) instruction variants, a masking
// compiler that applies them selectively via forward slicing from
// `secure`-annotated variables, a cycle-accurate transition-sensitive energy
// model, the DES workload, and the SPA/DPA attack framework the scheme
// defends against.
//
// Start with package desprog to compile and run DES at a protection policy,
// package experiments for the paper's figures and tables, and the
// executables under cmd/ for CLI access. See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package desmask
