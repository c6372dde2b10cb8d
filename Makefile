# Development targets. `make check` is the gate a change must pass:
# formatting, vet, the full test suite under the race detector, and the
# bench/ module's own vet and tests.

GO ?= go

# The staticcheck release both CI and local runs must use. Pinning keeps
# "make lint here" and "lint job there" analyzing with the same checks:
# an unpinned @latest drifts silently and the two disagree about what is
# clean. CI reads this via `make print-staticcheck-version`.
STATICCHECK_VERSION ?= 2025.1.1

.PHONY: check fmt vet lint disco-lint print-staticcheck-version test test-race fuzz-smoke bench-module bench bench-compile build chaos

check: fmt lint test-race bench-module

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet: the project's own invariant suite
# (cmd/disco-lint, always runs — it builds from this repo) plus
# staticcheck. staticcheck is optional locally (the CI lint job installs
# the pinned release); when absent the skip is loud and names the version
# to install, and when present a version other than the pin fails rather
# than silently analyzing with different checks.
lint: vet disco-lint
	@if command -v staticcheck >/dev/null 2>&1; then \
		got="$$(staticcheck -version 2>/dev/null | sed -n 's/^staticcheck \([^ ]*\).*/\1/p')"; \
		if [ "$$got" != "$(STATICCHECK_VERSION)" ]; then \
			echo "staticcheck version $$got does not match pinned $(STATICCHECK_VERSION)"; \
			echo "install with: go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
			exit 1; \
		fi; \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; SKIPPING staticcheck (go vet and disco-lint ran)"; \
		echo "install with: go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
	fi

# The project-specific analyzers (internal/lint): eofidentity, ctxflow,
# gotrack, locksend, traceexplain, specfence. Mechanizes the bug classes
# the chaos harness keeps rediscovering; see the "Correctness invariants"
# section in disco.go.
disco-lint:
	$(GO) run ./cmd/disco-lint ./...

# Used by CI to install the exact staticcheck release the Makefile pins.
print-staticcheck-version:
	@echo $(STATICCHECK_VERSION)

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# A short run of each fuzzer that holds a fast path to its specification:
# the wire-codec decoder against arbitrary bytes and the encoder against
# arbitrary strings, floats and integers, both held to the encoding/json
# reference codec in internal/types/json_spec_test.go; the structural
# algebra.Equal held to plan-string equality; and the optimizer's memoized
# capability verdicts held to the Earley recognizer. A failing input lands
# in the package's testdata/fuzz and replays in every later `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeValue$$' -fuzztime 15s ./internal/types
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeMatchesSpec$$' -fuzztime 15s ./internal/types
	$(GO) test -run '^$$' -fuzz '^FuzzPlanEqual$$' -fuzztime 15s ./internal/algebra
	$(GO) test -run '^$$' -fuzz '^FuzzAcceptsMemo$$' -fuzztime 15s ./internal/core

# bench/ is its own module (replace disco => ../), so ./... above does not
# reach it: an internal/* signature the benchmark imports can change and
# everything else stays green. Vet and test it against this tree.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# The repository's benchmark (BENCHMARK.json, bench/README.md): five
# workloads over a 16-shard x 2-copy fleet on loopback TCP, end-to-end and
# per-layer metrics as JSON on stdout.
bench:
	bash bench/run.sh

# The seeded fault-injection suite: chaos-proxy unit tests, the admission
# gate and retry-budget tests, the chaos soaks (overload -> partition ->
# recovery, hedge-loser cancellation reclaim, and the migration soak that
# faults a live shard move at every phase boundary), and the end-to-end
# cancellation tests — all under the race detector. Deterministic: the
# chaos timelines are seeded, so a failure replays.
chaos:
	$(GO) test -race -run 'TestChaosSoak|TestProxy|TestAdmission|TestRetryBudget|TestMediatorCloseWithQueriesQueued|TestQueryShed|TestClassifySourceError|TestHedgeLoserReclaimsServerWork|TestCallerCancelReclaimsServerWork' ./internal/chaos/ ./internal/core/ ./internal/harness/

# Compile-and-smoke every benchmark in every package (one iteration each)
# so bench rot fails CI rather than lingering.
bench-compile:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
