GO ?= go
# The scoreboard file `make guard` reads and `make record` writes.
WALLCLOCK ?= BENCH_wallclock.json

.PHONY: all build vet test race bench bench-guard guard record check attacks dfa explore explore-smoke soak serve-soak scale fuzz-smoke perfbench-build perfbench-smoke ci

all: ci

build:
	$(GO) build ./...

# Vet, and fail if gofmt would reformat any file.
vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l lists unformatted files:"; gofmt -l .; exit 1; }

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

# Microbenchmarks that name their layer: mem.Store COW, L2 fill, clone and
# sparse-delta hydrate, and checkpoint/fork cost. A fixed iteration count
# (-benchtime 100x) keeps the run to seconds; it asserts no bound, so read
# the ns/op and B/op numbers comparatively, not absolutely.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 100x ./internal/mem/ ./internal/cache/ ./internal/check/

# The scoreboard: each kind of the guard table in internal/wallclock is
# remade on the fixed run its BENCH_wallclock.json record was made on (the
# suite at -j 1 and -j 0, the checker campaign, the explorer, the parked
# footprint; see runners in cmd/sentrybench). guard fails if a fresh run is
# >25% worse than its record or the explorer fell below 10x the recorded
# seed-replay baseline; it prints every row before it fails. The baseline
# itself is record-only: it is the slow engine, and its rate is the
# yardstick.
guard:
	$(GO) run ./cmd/sentrybench -guard $(WALLCLOCK)

# Re-record every kind after an intentional change; fails unless the tree
# keeps 10x the fresh baseline.
record:
	$(GO) run ./cmd/sentrybench -record $(WALLCLOCK)

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

# Determinism smoke: a -j 1 and a -j 0 sweep must print byte-identical
# "explore:" verdict lines (throughput "perf:" lines are exempt). Each sweep
# writes to a file first, so its own exit status fails the recipe; only then
# are the lines compared.
explore-smoke:
	@mkdir -p .bench_build
	$(GO) run ./cmd/sentrybench -explore -explore-budget 20000 -j 1 -explore-corpus EXPLORE_corpus.txt > .bench_build/explore-j1.txt
	$(GO) run ./cmd/sentrybench -explore -explore-budget 20000 -j 0 -explore-corpus EXPLORE_corpus.txt > .bench_build/explore-j0.txt
	grep '^explore:' .bench_build/explore-j1.txt > .bench_build/explore-j1.lines
	grep '^explore:' .bench_build/explore-j0.txt | diff .bench_build/explore-j1.lines -
	@echo "explore-smoke: -j 1 and -j 0 sweeps verdict- and coverage-identical"

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

# HTTP determinism: the soak workload through sentryd + sentrybench
# -fleet-soak -url, run with a resident cap forcing park/hydrate cycles and
# again unbounded; the two client-visible JSON reports must be
# byte-identical.
serve-soak:
	sh scripts/serve_soak.sh

# Fleet capacity smoke: delta-parked and mid-reshard soaks must report
# byte-identically to a soak whose devices never park, and two runs must
# print identical "scale:" lines (their whole output), so a
# nondeterministic park encoding cannot hide. Each run writes to a file
# first, so its own exit status fails the recipe. The parked-footprint
# guard is the "scale" row of `make guard`; the >=5x reduction over a dense
# device is TestDeltaParkingShrinksParkedBytes, in `make test`.
scale:
	@mkdir -p .bench_build
	$(GO) run ./cmd/sentrybench -fleet-scale -devices 24 -ops 40 -seed 1 > .bench_build/scale-a.txt
	$(GO) run ./cmd/sentrybench -fleet-scale -devices 24 -ops 40 -seed 1 > .bench_build/scale-b.txt
	diff .bench_build/scale-a.txt .bench_build/scale-b.txt
	cat .bench_build/scale-a.txt

# The benchmark is its own Go module (perfbench/go.mod, replacing sentry
# with this checkout), so `go build ./...` never compiles it. Vet and build
# it against the current sources so an internal API change cannot silently
# break the benchmark. Needs no network: the module requires only sentry.
perfbench-build:
	cd perfbench && $(GO) vet ./... && $(GO) build -o /dev/null .

# Benchmark smoke: each repo-benchmark workload once, briefly, keeping every
# correctness, shape and validity check and asserting no wall-clock bound
# (CI runners are shared). serve-churn's fixed phase offers 600 ops/s for
# 9 s and fails the run once a request is 5 s late, so a server below
# roughly 385 ops/s fails it. Each run writes to a file first, so its own
# exit status fails the recipe; then its last line must report a correct
# run with no failed ops.
perfbench-smoke:
	@mkdir -p .bench_build
	bash perfbench/run.sh --workload serve-churn --seed 1 --seconds 20 --trace 0 > .bench_build/smoke-serve-churn.txt || { cat .bench_build/smoke-serve-churn.txt; exit 1; }
	grep '^steal:' .bench_build/smoke-serve-churn.txt
	tail -1 .bench_build/smoke-serve-churn.txt | grep '^{"correct":true,"attempted":[0-9]*,"failed":0,'
	bash perfbench/run.sh --workload explore-adversary --seed 1 --seconds 10 --trace 0 > .bench_build/smoke-explore-adversary.txt || { cat .bench_build/smoke-explore-adversary.txt; exit 1; }
	grep '^steal:' .bench_build/smoke-explore-adversary.txt
	tail -1 .bench_build/smoke-explore-adversary.txt | grep '^{"correct":true,"attempted":[0-9]*,"failed":0,'

# Short native-fuzzing burst over the PIN state machine, the cold-boot dump
# scanners, and the DFA pair classifier.
fuzz-smoke:
	$(GO) test -fuzz FuzzUnlockPIN -fuzztime 30s ./internal/kernel/
	$(GO) test -fuzz FuzzColdbootScan -fuzztime 30s ./internal/attack/
	$(GO) test -run '^$$' -fuzz FuzzEvictionSet -fuzztime 30s ./internal/attack/
	$(GO) test -run '^$$' -fuzz FuzzDFAFaultMask -fuzztime 30s ./internal/attack/

ci: vet build perfbench-build race bench bench-guard guard check attacks dfa explore-smoke soak serve-soak scale perfbench-smoke
