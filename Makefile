# Pre-PR gate: run `make check` before sending changes for review.
#
#   fmt          — formatting: fails when gofmt would rewrite any file
#   build        — compile every package, in both the default and the
#                  obs_debug (deep-profiling) build configurations
#   vet          — static analysis
#   test         — full unit-test suite
#   race         — race-detector pass over the concurrent packages (the
#                  sweep runner, the experiment suite and the explorer over
#                  it, the observability layer and the CLIs that drive them)
#   fuzz         — fuzz seed corpora in regression mode (no new input
#                  generation; just replays the checked-in seeds)
#   selfcheck    — the differential-oracle pass: every simulator run in the
#                  lockstep tests must agree with the reference cache model
#   faults       — deterministic fault-injection pass: seeded panics, delays
#                  and transient errors driven through the sweep runner
#   soak         — the service resilience proof: the chaos soak (hundreds of
#                  concurrent jobs through seeded faults, flaky journal
#                  writes, a mid-run crash and a graceful drain) plus the
#                  cachesimd process-level e2e (real SIGKILL + restart,
#                  SIGTERM drain to exit 0)
#   vulncheck    — govulncheck when installed; advisory only, never fails
#                  the gate (the container may not ship it)
#   perfgate     — regression radar: two ledgered cachesim runs into a
#                  scratch ledger, then `simreport gate` — the simulator is
#                  deterministic, so any cycle-count drift between the two
#                  runs is a real regression and fails the gate
#   metricslint  — metrics hygiene: every telemetry metric snake_case,
#                  declared exactly once, and METRICS.md regenerates to the
#                  checked-in bytes (drift fails)
#   telemetrygate — span-recording overhead budget: the telemetry on/off
#                  sub-benchmarks through the real service must stay within
#                  the shared overhead budget (see overhead_rounds)
#   allocgate    — allocation budget: the deterministic benchmarks' allocs/op
#                  and B/op against the checked-in BENCH snapshot
#                  (bench2json -fail-metrics allocs/op,B/op)
#   profilegate  — hot-path regression radar: two profiled cachesim runs into
#                  a scratch ledger, then `simreport perf -gate`; plus the
#                  profiling on/off overhead benchmark under the shared
#                  overhead budget
#   explaingate  — explainability contract: a -explain -selfcheck sweep
#                  (3C conservation asserted inside every run) plus the
#                  absent-vs-disabled overhead benchmark under the shared
#                  overhead budget — runs without -explain must not pay for
#                  the instrumentation's existence
#   check        — all of the above
#
# `make fuzz-long` runs the fuzzers for 30 s each and is not part of the
# gate.
#
# `make bench` snapshots the benchmark suite (with allocation stats) to
# BENCH_<date>.json via cmd/bench2json. Compare two snapshots with:
#
#   go run ./cmd/bench2json -diff BENCH_<old>.json BENCH_<new>.json

GO ?= go

.PHONY: check fmt build vet test race fuzz fuzz-long selfcheck faults soak vulncheck attrib perfgate metricslint telemetrygate allocgate profilegate explaingate bench clean

check: fmt vet build test race fuzz selfcheck faults soak vulncheck attrib perfgate metricslint telemetrygate allocgate profilegate explaingate

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "fmt: gofmt would rewrite:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...
	$(GO) build -tags obs_debug ./...

vet:
	$(GO) vet ./...

# -shuffle=on randomizes test order every run, so accidental
# order-dependence between tests surfaces in CI instead of in a refactor.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./internal/runner/ ./internal/experiments/ ./internal/core/ ./internal/obs/ ./internal/service/ ./cmd/...

# Go runs fuzz seed corpora as ordinary tests when -fuzz is absent; this
# target exists so the gate states the intent explicitly.
fuzz:
	$(GO) test -run 'Fuzz' ./internal/trace/ ./internal/check/ ./internal/engine/

fuzz-long:
	$(GO) test -run '^$$' -fuzz FuzzReadBinary -fuzztime 30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzReadDin -fuzztime 30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzOracleLockstep -fuzztime 30s ./internal/check/
	$(GO) test -run '^$$' -fuzz FuzzBuildProfiles -fuzztime 30s ./internal/engine/

# The lockstep-oracle tests across the cache, engine, system and sweep
# layers, plus the metamorphic cache properties they rest on.
selfcheck:
	$(GO) test -run 'SelfCheck|Shadow|Lockstep|BufOracle|Checked|LRUAssoc|LRUSize|FullyAssoc' \
		./internal/check/ ./internal/cache/ ./internal/system/ ./internal/engine/ ./internal/experiments/

# The deterministic fault-injection suite: injected panics, delays,
# transient errors and corrupt traces through the hardened runner.
faults:
	$(GO) test -run 'Fault|Wrap|Corrupt|Flaky|Decide' ./internal/faultinject/ ./internal/experiments/

# The sweep-service resilience envelope, run explicitly and uncached: the
# in-process chaos soak (kill mid-run, restart, drain, bit-identical
# results) and the cachesimd process e2e (real SIGKILL across process
# lives, SIGTERM drain must exit 0).
soak:
	$(GO) test -run 'ChaosSoak|Daemon' -count=1 -v ./internal/service/ ./cmd/cachesimd/

# Cycle-attribution conservation on a small real grid: every run below
# carries -attrib -selfcheck, so sum(components) == cycles is asserted
# inside the simulator (invariant battery + final check) and any violation
# exits non-zero. Covers the base system, a non-default geometry, a
# write-heavy buffer configuration and a two-level hierarchy.
attrib:
	$(GO) run ./cmd/cachesim -workload mu3 -scale 0.05 -attrib -selfcheck >/dev/null
	$(GO) run ./cmd/cachesim -workload savec -scale 0.05 -size 16 -block 32 -assoc 2 -attrib -selfcheck >/dev/null
	$(GO) run ./cmd/cachesim -workload mu6 -scale 0.05 -cycle 20 -attrib -selfcheck >/dev/null
	$(GO) run ./cmd/cachesim -workload rd2n4 -scale 0.05 -l2 256 -attrib -selfcheck >/dev/null
	@echo "attrib: conservation held on all runs"

# Two identical ledgered runs, then the gate: cycle counts are deterministic,
# so the gate trips only if the simulator's arithmetic changed between the
# two invocations (or the ledger projection broke). The tight tolerance is
# safe because wall-clock metrics never gate by default.
perfgate:
	@rm -rf .perfgate && mkdir -p .perfgate
	$(GO) run ./cmd/cachesim -workload mu3 -scale 0.05 -ledger .perfgate >/dev/null
	$(GO) run ./cmd/cachesim -workload mu3 -scale 0.05 -ledger .perfgate >/dev/null
	$(GO) run ./cmd/simreport gate -ledger .perfgate -tolerance 0.1
	@rm -rf .perfgate

# Metrics hygiene: lint the telemetry metric catalog and fail if the
# generated METRICS.md reference drifted from the code.
metricslint:
	$(GO) run ./cmd/metricslint

# The overhead budget shared by telemetrygate, profilegate and explaingate:
# $(call overhead_rounds,GATE,BENCH,OFF,ON,BENCHTIME) runs three independent
# rounds, each one `go test` run measuring BENCH's OFF and ON sub-benchmarks
# back to back (adjacent in time, so machine drift hits both halves alike),
# writing into the gate's scratch dir .GATE. Each round folds its halves
# with -best (the `#N` suffix of a repeated sub-benchmark is stripped, so
# repeats fold into one) and diffs them on its own through the bench2json
# fail-over gate. The gate passes if ANY round's pair is within budget:
# interference would have to inflate the on-half of all three rounds to
# fake a failure, while a real regression is present in every round. The
# budget gates cpu-ns/op, not wall time: overhead is CPU work, and wall
# time on a shared runner absorbs scheduler stalls that land on one half
# and not the other. The threshold is the 2% overhead budget plus one
# percentage point of measurement floor (on a shared single-core runner
# the serialized span recording itself measures ~2–2.5%; a real regression
# shows up as tens of points). On failure the scratch dir survives for
# inspection and CI artifact upload.
define overhead_rounds
@pass=0; for i in 1 2 3; do \
	echo "$(1): overhead round $$i"; \
	$(GO) test -run '^$$' -bench '$(2)/($(3)|$(4))' -benchtime $(5) . > .$(1)/bench$$i.txt || exit 1; \
	grep -v '$(2)/$(4)' .$(1)/bench$$i.txt \
		| sed -e 's|$(2)/$(3)|$(2)/guard|' -e 's|#[0-9]*||' \
		| $(GO) run ./cmd/bench2json -best -o .$(1)/off$$i.json || exit 1; \
	grep -v '$(2)/$(3)' .$(1)/bench$$i.txt \
		| sed -e 's|$(2)/$(4)|$(2)/guard|' -e 's|#[0-9]*||' \
		| $(GO) run ./cmd/bench2json -best -o .$(1)/on$$i.json || exit 1; \
	if $(GO) run ./cmd/bench2json -diff -fail-over 3 -fail-metrics cpu-ns/op \
		.$(1)/off$$i.json .$(1)/on$$i.json; then pass=1; fi; \
done; \
if [ $$pass -eq 0 ]; then echo "$(1): FAIL — every round over budget"; exit 1; fi
endef

# Telemetry overhead budget: span recording through the real service,
# telemetry off versus on.
telemetrygate:
	@rm -rf .telemetrygate && mkdir -p .telemetrygate
	$(call overhead_rounds,telemetrygate,TelemetryOverhead,off,on,50x)
	@rm -rf .telemetrygate

# Allocation budget: the benchmarks whose allocs/op and B/op reproduce
# exactly run to run (trace generation, the behavioural pass, the timing
# replay and the system simulator), diffed against the checked-in snapshot.
# allocs/op is exact, so any growth is a real new allocation on the hot
# path; the 3% headroom only absorbs B/op rounding from size-class drift.
# The sed strips the -GOMAXPROCS name suffix so the gate works on any
# machine; removed-benchmark lines in the diff are expected (the snapshot
# holds the full suite, the gate reruns only the deterministic subset).
allocgate:
	@rm -rf .allocgate && mkdir -p .allocgate
	@$(GO) test -run '^$$' -bench 'Table1Traces$$|BehavioralPass$$|TimingReplay$$|SystemSimulator$$' -benchmem . \
		| sed -E 's/^(Benchmark[A-Za-z0-9_]+)-[0-9]+/\1/' \
		| $(GO) run ./cmd/bench2json -o .allocgate/new.json
	$(GO) run ./cmd/bench2json -diff -fail-over 3 -fail-metrics allocs/op,B/op \
		BENCH_20261017.json .allocgate/new.json
	@rm -rf .allocgate

# Hot-path regression radar, both halves of the profiling contract:
# (1) two profiled runs into a scratch ledger must agree — `simreport perf
# -gate` diffs the second run's allocation fingerprint against the first
# under the noise-aware share-point thresholds, so a function newly hot on
# the capture path fails the gate; (2) the profiling on/off overhead
# benchmark (CPU profiler armed at 100 Hz + dense heap sampling around the
# same simulation, three off/on pairs per round) under the shared overhead
# budget (overhead_rounds).
profilegate:
	@rm -rf .profilegate && mkdir -p .profilegate
	$(GO) run ./cmd/cachesim -workload all -scale 0.25 -ledger .profilegate -profile .profilegate/profiles >/dev/null
	$(GO) run ./cmd/cachesim -workload all -scale 0.25 -ledger .profilegate -profile .profilegate/profiles >/dev/null
	$(GO) run ./cmd/simreport perf -ledger .profilegate -gate
	$(call overhead_rounds,profilegate,ProfileOverhead,off,on,150x)
	@rm -rf .profilegate

# Explainability contract, both halves. (1) 3C conservation on a small
# real grid: every run below carries -explain -selfcheck, so the invariant
# compulsory+capacity+conflict == misses is asserted inside the simulator
# (selfcheck battery + the recorder's own Finish cross-check against the
# independent miss counters) and any violation exits non-zero. Covers the
# base system, a direct-mapped geometry (conflict-heavy), a write-heavy
# set-associative buffer configuration and a two-level hierarchy.
# (2) The overhead half under the shared overhead budget
# (overhead_rounds): absent (no Options) vs disabled (Options present,
# nothing armed) — a disarmed recorder takes the identical code path as no
# recorder, so this gate trips only if someone reintroduces a cost on the
# unexplained path. The armed variants (threec/reuse/full) are
# deliberately not gated: shadow simulation has an inherent price, the
# contract is that only runs asking for explanations pay it.
explaingate:
	@rm -rf .explaingate && mkdir -p .explaingate
	$(GO) run ./cmd/cachesim -workload mu3 -scale 0.05 -explain -selfcheck >/dev/null
	$(GO) run ./cmd/cachesim -workload savec -scale 0.05 -size 16 -block 32 -assoc 1 -explain -selfcheck >/dev/null
	$(GO) run ./cmd/cachesim -workload mu6 -scale 0.05 -size 32 -assoc 2 -explain -selfcheck >/dev/null
	$(GO) run ./cmd/cachesim -workload rd2n4 -scale 0.05 -l2 256 -explain -selfcheck >/dev/null
	@echo "explaingate: 3C conservation held on all runs"
	$(call overhead_rounds,explaingate,ExplainOverhead,absent,disabled,50x)
	@rm -rf .explaingate

vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vulncheck: advisories found (non-fatal)"; \
	else \
		echo "vulncheck: govulncheck not installed, skipping"; \
	fi

bench:
	$(GO) test -run '^$$' -bench . -benchmem . \
		| sed -E 's/^(Benchmark[A-Za-z0-9_/#.-]+)-[0-9]+(\s)/\1\2/' \
		| $(GO) run ./cmd/bench2json -o BENCH_$$(date +%Y%m%d).json

clean:
	$(GO) clean ./...
	rm -rf .perfgate .telemetrygate .allocgate .profilegate .explaingate
