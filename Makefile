GO ?= go

.PHONY: all build test race vet fmt-check bench bench-build check serve-smoke query-smoke fuzz-smoke chaos-smoke chaos-serve soak-smoke loadgen-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The build pipeline is parallel by default, so the race detector is part
# of the standard gate, not an optional extra.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any Go file outside bench/ is not gofmt-clean
# (cmd/, internal/, examples/ and the root package).
fmt-check:
	test -z "$$(gofmt -l cmd internal examples *.go)"

bench:
	$(GO) test -bench=. -benchmem .

# bench-build compiles the benchmark module (bench/, a module of its own
# that the root `go build ./...` and `go test ./...` do not reach) and
# vets its probe, the one file there that imports internal/ — so a
# change that breaks a flag or signature the benchmark depends on fails
# here, not first when the benchmark pipeline runs.
bench-build:
	$(GO) -C bench build ./...
	$(GO) -C bench vet -tags benchprobe ./...

# serve-smoke boots the real strudel-serve binary against a tiny site,
# probes / and /healthz, and asserts a clean SIGTERM drain.
serve-smoke:
	sh scripts/serve-smoke.sh

# query-smoke drives the query API on the real binary end to end:
# schema introspection, a query, cursor pagination, EXPLAIN, a guard
# trip, and the queryapi metrics group on /debug/vars.
query-smoke:
	sh scripts/query_smoke.sh

# fuzz-smoke runs every fuzz target briefly. Go allows one -fuzz pattern
# per invocation, so the targets run one at a time; each starts from the
# checked-in seed corpus under its package's testdata/fuzz. The targets
# are discovered with `go test -list` in every package, so a new Fuzz
# function is picked up without editing this file.
FUZZTIME ?= 10s
fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg) || exit 1; \
		for fz in $$(printf '%s\n' "$$targets" | grep '^Fuzz'); do \
			echo "fuzz-smoke: $$pkg $$fz"; \
			$(GO) test -run='^$$' -fuzz="^$$fz\$$" -fuzztime=$(FUZZTIME) $$pkg; \
		done; \
	done

# chaos-smoke drives the fault-injection suite: filesystem faults at
# every publish step across all example sites and parallelism settings,
# plus corrupted-source lenient builds, and htmlgen's own publish and
# patch-publish fault drills over its concurrent stager — once plain,
# once under the race detector.
chaos-smoke:
	$(GO) test -count=1 -run '^TestChaos' .
	$(GO) test -count=1 -run '^TestPublish' ./internal/htmlgen
	$(GO) test -count=1 -race -run '^TestChaos' .
	$(GO) test -count=1 -race -run '^TestPublish' ./internal/htmlgen

# chaos-serve runs the gray-failure serving drill: faultnet-proxied
# replicas (one slow, one flapping) under oracle-verified load, once
# plain (writing the drill report to $CHAOS_SERVE_OUT) and once under
# the race detector.
chaos-serve:
	sh scripts/chaos_serve.sh

# soak-smoke runs the incremental-maintenance edit storm: 1,000 seeded
# random edits per example site with the patched pages byte-compared
# against a full rebuild after every edit — once plain, once (shorter)
# under the race detector.
SOAK_EDITS ?= 1000
SOAK_EDITS_RACE ?= 250
soak-smoke:
	SOAK_EDITS=$(SOAK_EDITS) $(GO) test -count=1 -timeout 20m -run '^TestSoak' .
	SOAK_EDITS=$(SOAK_EDITS_RACE) $(GO) test -count=1 -race -timeout 20m -run '^TestSoak' .

# loadgen-smoke runs the open-loop load generator against an in-process
# sharded fleet for a short fixed window, asserting non-zero throughput
# and zero differential-oracle mismatches; the raced serving-invariant
# drills (reload under load, chaos kills, the shared-snapshot pin, the
# cross-replica single-flight handover) run alongside it.
loadgen-smoke:
	$(GO) test -count=1 -run '^TestLoadgenSmoke$$' -v ./internal/fleet
	$(GO) test -count=1 -race -run '^TestReloadUnderLoad$$|^TestChaosKillsUnderLoad$$|^TestGenerationIsOneSharedSnapshot$$|^TestSingleFlightAcrossShards$$' ./internal/fleet

# check is what CI runs.
check: build fmt-check vet race bench-build

clean:
	$(GO) clean ./...
