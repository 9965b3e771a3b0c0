# Development and CI entry points. CI calls these targets instead of
# inlining commands so the lint toolchain is pinned in exactly one
# place and a local `make lint` reproduces the CI lint job bit for bit.

# staticcheck floats its minimum Go at @latest; pin it here (the only
# place) and bump deliberately.
STATICCHECK_VERSION := v0.6.1

GO ?= go
BIN := bin

.PHONY: build test bench-test race fmt fmt-check vet lint staticcheck sldfcheck seeded-selftest FORCE

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark harness is its own module (bench/go.mod). Test it with the
# offline, checkout-local Go environment bench/run.sh builds it with, so
# nothing is fetched and its caches stay under .bench_build.
BENCH_BUILD := $(CURDIR)/.bench_build
BENCH_GOENV := GOCACHE=$(BENCH_BUILD)/gocache GOPATH=$(BENCH_BUILD)/gopath \
	GOMODCACHE=$(BENCH_BUILD)/gopath/pkg/mod XDG_CONFIG_HOME=$(BENCH_BUILD)/config \
	GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

bench-test:
	$(BENCH_GOENV) $(GO) -C bench test ./...

# Race-stress the concurrency-heavy surfaces: the netsim engine's
# parallel flow solver and the campaign scheduler's churn/remote
# machinery. -count=2 reruns every test to widen the interleaving net.
race:
	$(GO) test -race -count=2 ./internal/netsim/ ./internal/campaign/...

fmt:
	gofmt -l -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The full lint stack, in the order CI runs it.
lint: fmt-check vet sldfcheck seeded-selftest staticcheck

$(BIN)/sldfcheck: FORCE
	$(GO) build -o $(BIN)/sldfcheck ./cmd/sldfcheck

FORCE:

# The repo's own invariant analyzers (internal/check): determinism,
# hot-path allocations, cache-key completeness, sentinel-error
# comparisons. Gating — any diagnostic fails the target.
sldfcheck: $(BIN)/sldfcheck
	$(GO) vet -vettool=$(abspath $(BIN)/sldfcheck) ./...

# Prove the gate has teeth: a module seeded with one violation per
# analyzer must FAIL sldfcheck. A checker that silently stopped firing
# would otherwise look exactly like a clean tree.
seeded-selftest: $(BIN)/sldfcheck
	@out="$$(cd internal/check/testdata/seeded && $(GO) vet -vettool=$(abspath $(BIN)/sldfcheck) ./... 2>&1)"; \
	if [ $$? -eq 0 ]; then \
		echo "seeded-violation module unexpectedly passed sldfcheck"; exit 1; \
	fi; \
	echo "sldfcheck caught the seeded violations:"; echo "$$out"

# Requires network on first run (go install); the version is pinned
# above so local and CI runs agree.
staticcheck:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	staticcheck ./...
