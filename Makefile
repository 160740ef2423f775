# Canonical verification pipeline; CI and pre-commit both run `make check`.
GO ?= go

# How long `make fuzz` spends per fuzz target.
FUZZTIME ?= 10s

.PHONY: check tracked-files fmt build binaries vet purego test race fuzz crash restart bench perf perf-diff benchmark-check tier-smoke dp-smoke bench-smoke distributed-smoke incremental-smoke paper examples loc

check: tracked-files fmt build binaries vet purego test race crash restart fuzz benchmark-check tier-smoke dp-smoke bench-smoke distributed-smoke incremental-smoke paper examples loc

# No build output in the tree: every tracked file (as staged) is under
# 1 MiB, and none is a compiled binary — an executable file must be a
# script that starts with #!. The largest legitimate file is a journal
# fixture of ≈ 460 KB.
tracked-files:
	@git ls-files -s | { bad=0; while read -r mode sha _ path; do \
		size=$$(git cat-file -s $$sha); head=$$(git cat-file -p $$sha | head -c 4 | od -An -tx1 | tr -d ' '); \
		if [ "$$size" -gt 1048576 ]; then echo "tracked-files: $$path is $$size bytes (limit 1 MiB)"; bad=1; fi; \
		if [ "$$head" = 7f454c46 ] || { [ "$$mode" = 100755 ] && [ "$${head#2321}" = "$$head" ]; }; then \
			echo "tracked-files: $$path is an executable, not a script"; bad=1; fi; \
	done; exit $$bad; }

# Every Go file gofmt-formatted: fails listing the files `gofmt -l` names.
# It reads the frozen benchmark/ module too but never rewrites a file, and
# skips the scratch checkouts under .bench_build/.
fmt:
	@bad=$$(find . -name '*.go' -not -path './.bench_build/*' | xargs gofmt -l); \
	if [ -n "$$bad" ]; then echo "fmt: not gofmt-formatted (run gofmt -w on them):"; echo "$$bad"; exit 1; fi

build:
	$(GO) build ./...

# Link every command to a real binary (catches main-package-only
# breakage that `go build ./...`'s cached compile can miss).
binaries:
	$(GO) build -o bin/ ./cmd/...

vet:
	$(GO) vet ./...

# The Montgomery step reaches math/big's row kernel by go:linkname, which
# only its assembly build exports: under math_big_pure_go a Go copy of the
# loop stands in. Both builds must link, and vet must pass on an arch
# other than the host's.
# The conformance matrix's secure cells run on that build too.
purego:
	$(GO) build -tags math_big_pure_go ./...
	$(GO) test -tags math_big_pure_go ./internal/paillier
	$(GO) test -tags math_big_pure_go ./internal/testkit -run '^TestConformance$$/secure' -count=1
	GOARCH=arm64 $(GO) vet ./internal/paillier

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short coverage-guided pass over every fuzz target; `go test -fuzz`
# accepts one target per run, hence one invocation each.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/vgh
	$(GO) test -run '^$$' -fuzz '^FuzzPathCodeAndIndex$$' -fuzztime $(FUZZTIME) ./internal/vgh
	$(GO) test -run '^$$' -fuzz '^FuzzReadView$$' -fuzztime $(FUZZTIME) ./internal/anonymize
	$(GO) test -run '^$$' -fuzz '^FuzzSlackDecisionRule$$' -fuzztime $(FUZZTIME) ./internal/blocking
	$(GO) test -run '^$$' -fuzz '^FuzzHeuristicOrdering$$' -fuzztime $(FUZZTIME) ./internal/heuristic
	$(GO) test -run '^$$' -fuzz '^FuzzJournalReplay$$' -fuzztime $(FUZZTIME) ./internal/journal
	$(GO) test -run '^$$' -fuzz '^FuzzIndexPrune$$' -fuzztime $(FUZZTIME) ./internal/index
	$(GO) test -run '^$$' -fuzz '^FuzzPackedSigned$$' -fuzztime $(FUZZTIME) ./internal/paillier
	$(GO) test -run '^$$' -fuzz '^FuzzFixedBaseNoise$$' -fuzztime $(FUZZTIME) ./internal/paillier
	$(GO) test -run '^$$' -fuzz '^FuzzMontMul$$' -fuzztime $(FUZZTIME) ./internal/paillier
	$(GO) test -run '^$$' -fuzz '^FuzzPackBlinded$$' -fuzztime $(FUZZTIME) ./internal/paillier
	$(GO) test -run '^$$' -fuzz '^FuzzDiceTier$$' -fuzztime $(FUZZTIME) ./internal/bloom
	$(GO) test -run '^$$' -fuzz '^FuzzLaplaceBins$$' -fuzztime $(FUZZTIME) ./internal/dpblock
	$(GO) test -run '^$$' -fuzz '^FuzzResolveBudget$$' -fuzztime $(FUZZTIME) ./internal/resolve
	$(GO) test -run '^$$' -fuzz '^FuzzResultStream$$' -fuzztime $(FUZZTIME) ./internal/smc
	$(GO) test -run '^$$' -fuzz '^FuzzPlainComparator$$' -fuzztime $(FUZZTIME) ./internal/smc
	$(GO) test -run '^$$' -fuzz '^FuzzFrame$$' -fuzztime $(FUZZTIME) ./internal/smc
	$(GO) test -run '^$$' -fuzz '^FuzzFrame$$' -fuzztime $(FUZZTIME) ./internal/distrib
	$(GO) test -run '^$$' -fuzz '^FuzzSpecBodies$$' -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -run '^$$' -fuzz '^FuzzDeltasPage$$' -fuzztime $(FUZZTIME) ./internal/service

# The end-to-end benchmark is a nested module (benchmark/), so tier-1
# `go build ./... && go test ./...` neither builds nor runs it. Its own
# short-scale pass reads seams of this module — the Progress cadence, the
# journal.Sink burst shape, ChunkHint, session.QueryConfig — so a change
# that breaks one fails here rather than in the pipeline (≈40 s).
benchmark-check:
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test -count=1 .

# The end-to-end benchmark on BASE (default HEAD~1) and on this checkout,
# RUNS alternated rounds (default 3; a claimed gain wants 10), then the
# bound check between them. Round r runs every workload once on each
# side, BASE first when r is odd, so a slow spell of a shared host lands
# on both; scripts/bench-merge.sh joins each side's rounds into one file.
# BASE is checked out into a git worktree under .bench_build/ — run.sh
# builds from the checkout it sits in — which is removed on every exit
# path. Takes minutes, so it is not part of `make check`.
BASE ?= HEAD~1
RUNS ?= 3
perf-diff:
	@set -e; wt=.bench_build/perf-diff-base; out=$$PWD/.bench_build/perf-diff; \
	mkdir -p $$out; rm -f $$out/*.json; git worktree remove --force $$wt 2>/dev/null || true; \
	trap 'git worktree remove --force '$$wt' 2>/dev/null || true' EXIT; trap 'exit 130' INT TERM; \
	git worktree add --detach $$wt $(BASE) >/dev/null; \
	for r in $$(seq 1 $(RUNS)); do \
		if [ $$((r % 2)) = 1 ]; then sides="base head"; else sides="head base"; fi; \
		for s in $$sides; do \
			if [ $$s = base ]; then dir=$$wt; else dir=.; fi; \
			echo "perf-diff: round $$r of $(RUNS), $$s"; \
			bash $$dir/benchmark/run.sh -runs 1 -out $$out/$$s-$$r.json; \
		done; \
	done; \
	bash scripts/bench-merge.sh $$(seq -f "$$out/base-%g.json" 1 $(RUNS)) > $$out/base.json; \
	bash scripts/bench-merge.sh $$(seq -f "$$out/head-%g.json" 1 $(RUNS)) > $$out/head.json; \
	bash benchmark/run.sh -compare $$out/base.json $$out/head.json

# Crash injection: the conformance matrix's killed-and-resumed column.
# Every generated world's core.Link run (and the first eight worlds' live
# engine) is killed a quarter in, halfway and on the final pair, the middle
# kill with a torn journal tail, and every shape's killed row at a seeded
# pair; each stitched run must equal its uninterrupted reference.
crash:
	$(GO) test ./internal/testkit -run '^TestConformance$$/journal=killed' -count=1

# Job-service restart recovery under the race detector: a daemon killed
# mid-SMC (and one drained on SIGTERM) must resume from its journals
# with verdict-identical results and exact allowance accounting (also a
# distributed job drained while it waits for its fleet), and a dataset no
# build can resume must come back failed and read-only.
restart:
	$(GO) test -race -count=1 -run '^TestService(RestartRecovery|DrainResume|FleetWaitInterrupted)$$|^Test(Legacy|Tier)DPDatasetFailsReadOnly$$' ./internal/service
	$(GO) test -race -count=1 -run '^TestServeSmoke$$' ./cmd/pprl-serve

# Three-tier triage vs the two-tier baseline at a smoke scale, as a gate:
# both arms share one blocking result, and the run fails on any engine
# error and unless, on every allowance row, the tier's precision is exactly
# 1 and its recall is at least the baseline's (TierPerfReport.Gate).
tier-smoke:
	$(GO) run ./cmd/pprl-bench -exp tier -records 600

# The worker-death reassignment test twenty times over: the death is
# injected with a chunk in flight, so every run must see the failure
# counted and the fleet shrunk. Then README's fleet quickstart from built
# binaries: pprl-serve -fleet-listen, two pprl-party workers dialing it,
# one secure distributed job equal to the in-process run. (Fleet-vs-local
# verdict equality is the conformance matrix's fleet cells,
# TestConformance/…,fleet,…, in `make test`.)
distributed-smoke:
	$(GO) test -run '^TestWorkerDeathReassignment$$' -count=20 ./internal/distrib
	$(GO) test -run '^TestBinaryFleet$$' -count=1 ./cmd/pprl-serve

# ε-sweep of noised blocking against the k-anonymous baseline at a
# smoke scale, as a gate: the run fails on any engine error and unless, on
# every ε row, precision is exactly 1, live + dummy purchases fit the
# allowance and the dummies bought fit the padding (DPPerfReport.Gate);
# then the schema test over the emitted BENCH_dp report (padding that
# grows with ε, schema drift).
dp-smoke:
	$(GO) run ./cmd/pprl-bench -exp dp -records 600
	$(GO) test -run '^TestRunDPJSON$$' -count=1 ./cmd/pprl-bench

# The service-level live-dataset crash/replay smoke under the race
# detector. (Incremental-vs-frozen verdict equality is the conformance
# matrix's live cells, TestConformance/…,live,…, in `make test`.)
incremental-smoke:
	$(GO) test -race -count=1 -run '^TestService(IncrementalSmoke|DedupDataset)$$' ./internal/service

# One-iteration compile-and-run of every micro-benchmark: keeps the
# paillier kernels (the Montgomery step, BenchmarkMontMul: ns per CIOS
# step beside the three-multiplication step it replaced and Mul+Mod;
# one packed ciphertext of Bob's at 60-bit slots, BenchmarkPackBlinded:
# ns per slot), the SMC engine benches — BenchmarkSecureRun's
# run-length fan-out curve at both slot geometries (the schema-less
# 30-bit value bound and the 7 bits derived for Adult) among them —
# core's plaintext-oracle link
# (BenchmarkLinkPlain: the label store's pairs/s and B/pair) with its two
# halves alone (BenchmarkTopDown: the paper-shaped anonymization;
# BenchmarkResolveRun: the resolution kernel's ns/pair), the
# journal writer's cost per verdict (BenchmarkWriterRecord: a verdict a
# row at two cadences, and rows of 29 in span records), one live-ingest
# batch's probes of the live index (BenchmarkLiveCandidates), the live
# engine's ns and B per purchased pair behind a real journal, and its ns
# per pair over the first and last quarter of batches
# (BenchmarkEngineAppend), one 2,400-delta page written and read
# (BenchmarkDeltasPage: ns, B and bytes per delta) and the cost of one
# accepted batch's schedule
# line at 16 and at 2,048 entries (BenchmarkAppendBatchEntry: must be
# flat) and the blocking step on a 30,162-record Adult split at k = 32
# and k = 2 (BenchmarkBlock: ns/op and class counts) from bit-rotting
# without paying for a real measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/paillier ./internal/smc ./internal/core ./internal/journal ./internal/anonymize ./internal/resolve ./internal/index ./internal/incremental ./internal/service

# The reproduction as a gate: regenerate, at the paper's 20,108 × 20,108
# scale, every section experiments_full.txt holds (the worked example,
# Figs. 2–8, strategies … timing; ≈ 1–2 min) and diff it against the
# committed file. Every line must match except the measured and quoted
# columns of the timing table, which are wall-clock: of that section only
# the title and the stage labels (the invocation counts among them) are
# compared.
paper:
	@mkdir -p .bench_build
	$(GO) run ./cmd/pprl-bench -full -exp "$$(sed -n 's/^\([a-z0-9]*\) — .*/\1/p' experiments_full.txt | paste -sd, -)" > .bench_build/experiments_full.txt
	@untimed() { awk '/^timing — /{t=1} t&&/^$$/{t=0} t{sub(/  .*/,"")} {print}' "$$1"; }; \
	untimed experiments_full.txt > .bench_build/paper.want; untimed .bench_build/experiments_full.txt > .bench_build/paper.got; \
	diff -u .bench_build/paper.want .bench_build/paper.got && echo "paper: every table matches experiments_full.txt"

# Every examples/ program, built and run, its stdout diffed against its
# testdata/want.txt (≈ 2 s; also part of `make test`).
examples:
	$(GO) test -count=1 -run '^TestExamples$$' .

# Serial-vs-sharded throughput of the secure comparator (1024-bit key).
# End-to-end and per-layer performance is `bash benchmark/run.sh` and
# `make perf-diff`.
bench:
	$(GO) test ./internal/smc -run XXX -bench BenchmarkSecureBatch -benchtime 3x

# Machine-readable reports of the paper-question arms that keep one
# (BENCH_tier.json, BENCH_dp.json), at the paper's scale and stamped with
# host / Go / commit (≈ 15 s together). The 1,800-record copies are
# fixtures of cmd/pprl-bench's tests (testdata/), not headlines.
perf:
	$(GO) run ./cmd/pprl-bench -full -exp tier -json
	$(GO) run ./cmd/pprl-bench -full -exp dp -json

# Code size, so the next audit reads the number instead of recounting it:
# non-test Go lines outside the frozen benchmark/, then test lines —
# internal/testkit counts as test code whole: only tests import it, and the
# target fails if a non-test file elsewhere ever does, or if a non-test file
# imports encoding/gob (peer frames are internal/wire's) — then the option
# count (the fields of the engine configs, of the shared parameter block —
# counted once — and of what each API body adds to it, and the flag
# definitions under cmd/ and internal/cliutil; TestOptionCount fails, and
# this target with it, when one rises above its written cap) and the line
# counts of DESIGN.md and TESTING.md, which TestDocReferences caps the same
# way and checks every section and test reference in the documents.
loc:
	@bad=$$(grep -l '"pprl/internal/testkit"' $$(find . -name '*.go' -not -name '*_test.go' -not -path './internal/testkit/*' -not -path './benchmark/*' -not -path './.bench_build/*')); \
	if [ -n "$$bad" ]; then echo "loc: non-test files import internal/testkit: $$bad"; exit 1; fi
	@bad=$$(grep -l '"encoding/gob"' $$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*')); \
	if [ -n "$$bad" ]; then echo "loc: non-test files import encoding/gob: $$bad"; exit 1; fi
	@printf 'non-test Go lines: '; find . -name '*.go' -not -name '*_test.go' -not -path './internal/testkit/*' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs wc -l | tail -1
	@printf 'test Go lines:     '; find . \( -name '*_test.go' -o -path './internal/testkit/*.go' \) -not -path './benchmark/*' -not -path './.bench_build/*' | xargs wc -l | tail -1
	@out=$$($(GO) test -count=1 -run '^Test(OptionCount|DocReferences)$$' -v .); status=$$?; \
	printf '%s\n' "$$out" | sed -n 's/^ *[a-z_]*_test.go:[0-9]*: //p'; exit $$status
