GO ?= go

# Minimum acceptable total statement coverage (percent) for `make cover`.
COVER_FLOOR ?= 78.0

.PHONY: build test race bench benchmark-smoke check cover fmt vet lint chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Total statement coverage with a floor: fails when the suite drops below
# COVER_FLOOR percent. -short skips the soak/stress scenarios (the race and
# chaos targets run those); coverage comes from the fast deterministic tests.
cover:
	$(GO) test -short -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the floor $(COVER_FLOOR)%"; exit 1; }

# The fault-injection acceptance scenarios under the race detector.
chaos:
	$(GO) test -race -run Chaos ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Skips with a notice when staticcheck is not on
# PATH (CI installs it; local runs need not).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping lint"; \
	fi

# benchmark/ is its own Go module, so the targets above never compile it;
# this catches a root-module API change that breaks it. vet, not build:
# `go build ./...` there drops a stray benchmark/benchmark binary.
benchmark-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

check: fmt vet lint race chaos cover benchmark-smoke
