# Standard workflows for the desmask reproduction.

GO ?= go

.PHONY: all build test test-short bench bench-json experiments csv verify fmt vet clean leakd

all: build test

build:
	$(GO) build ./...

# The leakage-assessment daemon (see README "The assessment service").
leakd:
	$(GO) build -o leakd ./cmd/leakd

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark artifacts:
#  - predecoded-core throughput: cycles/sec, ns/cycle and allocs/op for
#    untraced and traced full-DES runs (BENCH_predecode.json)
#  - sequential vs parallel batch trace acquisition (traces/sec + bit-identity)
#  - block-compiled engine vs cycle-accurate core on both ISAs: speedup and
#    bit-identity of ciphertext/stats/registers (BENCH_blockcompile.json)
#  - compiler optimization ablation (per-policy instruction/cycle/energy
#    counts for DES with and without -O)
#  - streaming TVLA acceptance run: 10k-trace fixed-vs-random DES per policy
#    at workers 1/4/16 (bit-identity, verdicts, traces/sec, constant memory
#    vs the materialized dpa.Collect baseline) (BENCH_tvla.json)
#  - gang-scheduled lockstep assessment vs the scalar path per policy
#    (traces/sec, speedup, t-vector bit-identity) (BENCH_gang.json)
#  - leakd under concurrent client load: per-second 200/429/504 curves,
#    cache-hit rate and latency percentiles (BENCH_leakd.json)
bench-json:
	$(GO) run ./cmd/simbench -traces 64 -trials 10 \
		-o BENCH_parallel_traces.json -core-o BENCH_predecode.json
	$(GO) run ./cmd/simbench -blocks -trials 20 -blocks-o BENCH_blockcompile.json
	$(GO) run ./cmd/simbench -gang 16 -traces 128 -max 12000 -workers 1 \
		-gang-o BENCH_gang.json
	$(GO) run ./cmd/optbench -o BENCH_compiler_opt.json
	$(GO) run ./cmd/tvla -bench -traces 10000 -max 12000 -o BENCH_tvla.json
	$(GO) run ./cmd/leakload -clients 64 -requests 512 -traces 32 \
		-concurrency 4 -queue 16 -o BENCH_leakd.json

# Regenerate every figure and table of the paper (text report + plots).
experiments:
	$(GO) run ./cmd/experiments -traces 256 -plot

# CSV series for external plotting.
csv:
	$(GO) run ./cmd/experiments -traces 256 -csv out

# The repository's verification artifacts.
verify:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	rm -rf out
	$(GO) clean -testcache
