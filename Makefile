GO ?= go

.PHONY: all build vet test race bench bench-guard bench-wallclock wallclock-guard snapshot-guard check attacks dfa explore explore-smoke explore-guard explore-record soak serve-soak throughput-guard throughput-record scale scale-record fuzz-smoke perfbench-build ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The bench package replays every experiment twice (shared parallel pass +
# serial determinism reruns); under the race detector that still outgrows
# go test's default 10-minute budget, but after the burst-path rework a
# 20-minute ceiling has ample slack.
race:
	$(GO) test -race -timeout 20m ./...

# Guard: a disabled tracer must stay within a few percent of the no-emit
# baseline (compare BenchmarkTracerDisabled to BenchmarkNoEmitBaseline).
bench-guard:
	$(GO) test -run '^$$' -bench 'BenchmarkTracerDisabled|BenchmarkNoEmitBaseline' -benchtime 2s ./internal/obs/

# Microbenchmarks: mem.Store COW, L2 fill, and checkpoint/fork cost. A fixed
# iteration count (-benchtime 100x) keeps the run fast and deterministic in
# shape; read the ns/op numbers comparatively, not absolutely.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 100x ./internal/mem/ ./internal/cache/ ./internal/check/

# Re-record the evaluation suite's wall-clock costs: one serial run (-j 1,
# comparable across machines), one worker-pool run (-j 0), and the
# model-checker campaign. All three land in BENCH_wallclock.json.
bench-wallclock:
	$(GO) run ./cmd/sentrybench -exp all -j 1 -wallclock BENCH_wallclock.json | tail -1
	$(GO) run ./cmd/sentrybench -exp all -j 0 -wallclock BENCH_wallclock.json | tail -1
	$(GO) run ./cmd/sentrybench -check -seeds 256 -wallclock BENCH_wallclock.json | tail -1

# Fail if a full suite run is >25% slower than the checked-in record, in
# either the serial or the worker-pool configuration.
wallclock-guard:
	$(GO) run ./cmd/sentrybench -exp all -j 1 -wallclock-guard BENCH_wallclock.json | tail -1
	$(GO) run ./cmd/sentrybench -exp all -j 0 -wallclock-guard BENCH_wallclock.json | tail -1

# Fail if the model-checker campaign is >25% slower than the checked-in
# record. The shrinker always forks captured worlds, so a regression in the
# snapshot fast path blows this guard.
snapshot-guard:
	$(GO) run ./cmd/sentrybench -check -seeds 256 -wallclock-guard BENCH_wallclock.json | tail -1

# Invariant model-checker: seeded campaigns against the defended system
# (must stay clean) plus the three positive controls (must each shrink to a
# minimal replayable reproducer).
check:
	$(GO) run ./cmd/sentrybench -check -seeds 256
	$(GO) run ./cmd/sentrybench -check -seeds 256 -faults benign

# Cache-timing adversary sweep: Prime+Probe, Evict+Reload, and the
# locked-way occupancy probe against every cache profile on both platforms.
# The insecure placement must lose (with a replayable one-line repro), the
# baseline/AutoLock/randomized defences must win on the same seeds, and the
# occupancy probe must expose way-locking on tegra3 only. Run twice and
# diffed — verdicts and repro lines must be byte-identical.
attacks:
	$(GO) run ./cmd/sentrybench -attacks -seeds 24 -j 0 > attacks-a.txt
	$(GO) run ./cmd/sentrybench -attacks -seeds 24 -j 1 > attacks-b.txt
	diff attacks-a.txt attacks-b.txt
	@rm -f attacks-a.txt attacks-b.txt

# Adversarial fault-injection sweep: differential fault analysis against the
# victim AES engine. The undefended DRAM placement must lose its full key
# (with a replayable one-line repro); the iRAM placement and both
# fault-detecting countermeasures (redundant recompute, integrity tag) must
# win on the same seeds. Run twice at different worker widths and diffed —
# verdicts and repro lines must be byte-identical.
dfa:
	$(GO) run ./cmd/sentrybench -dfa -seeds 24 -j 0 > dfa-a.txt
	$(GO) run ./cmd/sentrybench -dfa -seeds 24 -j 1 > dfa-b.txt
	diff dfa-a.txt dfa-b.txt
	@rm -f dfa-a.txt dfa-b.txt

# Prefix-sharing schedule explorer: per platform, one defended snapshot-tree
# sweep (must stay clean) plus the three positive controls (must each be
# defeated and shrink to a replayable repro). Seeds the sweep from the
# checked-in corpus of interesting prefixes; a missing corpus file is fine.
explore:
	$(GO) run ./cmd/sentrybench -explore -j 0 -explore-corpus EXPLORE_corpus.txt

# Determinism smoke: a -j 1 and a -j N sweep must print byte-identical
# "explore:" verdict lines (throughput "perf:" lines are exempt).
explore-smoke:
	sh scripts/explore_guard.sh smoke

# Fail if a fresh tree sweep fell >25% below the keyed "explore" record in
# BENCH_wallclock.json, or below 10x the recorded seed-replay baseline rate.
explore-guard:
	sh scripts/explore_guard.sh guard

# Re-record the explorer baselines: tree and seed-replay engines over the
# identical schedule set; fails unless the tree holds its 10x edge.
explore-record:
	sh scripts/explore_guard.sh record

# Fleet chaos soak: 32 devices under benign fault injection through the
# full service layer (actors, deadlines, retries, breakers, restarts,
# degradation). Run twice and diffed — the report must be byte-identical for
# a fixed seed — plus a race-detector pass over the fleet package.
soak:
	$(GO) run ./cmd/sentrybench -fleet-soak -devices 32 -ops 300 -seed 1 -faults benign > soak-a.json
	$(GO) run ./cmd/sentrybench -fleet-soak -devices 32 -ops 300 -seed 1 -faults benign > soak-b.json
	diff soak-a.json soak-b.json
	@rm -f soak-a.json soak-b.json
	$(GO) test -race -count=1 ./internal/fleet/...

# HTTP determinism: the soak workload through sentryd + sentryload, run with
# a resident cap forcing park/hydrate cycles and again unbounded; the two
# client-visible JSON reports must be byte-identical.
serve-soak:
	sh scripts/serve_soak.sh

# Open-loop serving throughput: fail if achieved ops/sec against a capped
# sentryd fell >25% below the keyed "serve" record in BENCH_wallclock.json.
# Latencies are measured from scheduled arrivals (no coordinated omission).
throughput-guard:
	sh scripts/throughput_guard.sh guard

# Re-record the serving-throughput baseline after an intentional change.
throughput-record:
	sh scripts/throughput_guard.sh record

# Fleet capacity smoke + memory guard: delta-parked and mid-reshard soaks
# must report byte-identically to a soak whose devices never park, two runs
# must print identical "scale:" lines, and the measured bytes per parked
# device must stay within 25% of the keyed "scale" record in
# BENCH_wallclock.json. (The >=5x reduction over a dense device is
# TestDeltaParkingShrinksParkedBytes, in `make test`.)
scale:
	sh scripts/scale_guard.sh smoke
	sh scripts/scale_guard.sh guard

# Re-record the parked-footprint baseline after an intentional change to
# the snapshot or delta encoding.
scale-record:
	sh scripts/scale_guard.sh record

# The benchmark is its own Go module (perfbench/go.mod, replacing sentry
# with this checkout), so `go build ./...` never compiles it. Vet and build
# it against the current sources so an internal API change cannot silently
# break the benchmark. Needs no network: the module requires only sentry.
perfbench-build:
	cd perfbench && $(GO) vet ./... && $(GO) build -o /dev/null .

# Short native-fuzzing burst over the PIN state machine, the cold-boot dump
# scanners, and the DFA pair classifier.
fuzz-smoke:
	$(GO) test -fuzz FuzzUnlockPIN -fuzztime 30s ./internal/kernel/
	$(GO) test -fuzz FuzzColdbootScan -fuzztime 30s ./internal/attack/
	$(GO) test -run '^$$' -fuzz FuzzEvictionSet -fuzztime 30s ./internal/attack/
	$(GO) test -run '^$$' -fuzz FuzzDFAFaultMask -fuzztime 30s ./internal/attack/

ci: vet build perfbench-build race bench-guard wallclock-guard snapshot-guard check attacks dfa explore-smoke explore-guard soak serve-soak throughput-guard scale
