# Standard workflows for the desmask reproduction.

GO ?= go

.PHONY: all build test test-short bench experiments csv verify fmt vet clean leakd

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

# The verdict benchmark (workloads and metrics in BENCHMARK.json) runs with
#   python3 perfbench/run.py
# see perfbench/README.md.

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
