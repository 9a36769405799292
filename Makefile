# LDV build and verification entry points.

GO ?= go

.PHONY: all build vet test check bench bench-smoke bench-gate examples experiments fuzz fuzz-smoke plan-bench recover-bench trace-bench stat-demo repl-bench proto-bench ash-bench asof-bench ops-demo repl-demo clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The observability registry is all lock-free atomics and the engine/server
# are concurrent (per-session transactions, MVCC reads), and replication
# applies WAL records concurrently with replica reads; always exercise those
# packages under the race detector.
test:
	$(GO) test ./...
	$(GO) test -race ./internal/obs/... ./internal/engine/... ./internal/server/... ./internal/repl/...

# Full verification: vet; the root package's tests, which are the lints —
# docs (every package needs a godoc comment), trace and wait (every span
# started and every obs.WaitBegin on the request path is ended via defer, and
# every wait event is described), metric (every registered metric needs a
# help string and a conforming name), plan (every plan operator carries the
# full explain + lineage surface), ast (every SQL expression kind and each of
# its operands is visited by sqlparse.Walk), proto (every wire message kind is
# documented in PROTOCOL.md and vice versa), codec (no package outside
# internal/bin decodes varints or declares a string primitive of its own) —
# and the public-API tests; the
# durability and replication crash matrices under the race detector; then
# the whole tree under the race detector with shuffled test order (to
# surface order-dependent state).
check:
	$(GO) vet ./...
	$(GO) test .
	$(GO) test -race -run TestCrashMatrix ./internal/engine
	$(GO) test -race -run TestReplicaCrashMatrix ./internal/repl
	$(GO) test -race -shuffle=on ./...

# One testing.B benchmark per paper table/figure plus engine micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# CI smoke variant of the engine, client, wire and trace/packaging micro-benchmarks:
# every benchmark once, so one that no longer builds or runs fails the push
# instead of rotting.
bench-smoke:
	$(GO) test ./internal/engine ./internal/client ./internal/wire ./internal/prov ./internal/ldv ./internal/deps ./internal/pack -run '^$$' -bench . -benchtime 1x

# The regression gate over the repository benchmark (benchmark/README.md):
# a fresh ten-run set (seeds 42..51, ~20 min) compared against the newest
# committed BENCH_<pr>.json. Exits non-zero on a breach of any end-to-end
# bound or a higher share of failed operations. A PR that means to move a
# number commits its own set as the next BENCH_<pr>.json (and its parent's
# alternating rerun as BENCH_<parent>_rerun.json, which sorts below it).
# BENCH_17.json and BENCH_19.json were recorded on a box a third slower on
# memory-bound work than BENCH_16.json's, and BENCH_20.json's wire_oltp reads
# 28 k ops/s where BENCH_16.json's read 33 k: for sql_olap and wire_oltp see
# ROADMAP item 1a before trusting this gate.
bench-gate:
	mkdir -p .bench_build
	$(GO) run ./benchmark -runs 10 -trace 0 -o .bench_build/fresh.json > .bench_build/fresh.log
	$(GO) run ./benchmark -compare $$(ls BENCH_*.json | sort -V | tail -1) .bench_build/fresh.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/halofinder
	$(GO) run ./examples/tpch
	$(GO) run ./examples/partialreplay
	$(GO) run ./examples/replication

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/ldv-bench -exp all

# Every fuzz target, as package:Target (package under internal/). `fuzz` is a
# short fuzzing pass over the parser, the codecs and the ops endpoint, 30s per
# target; `fuzz-smoke` (CI) runs the same list for a few seconds per target,
# keeping the corpus exercised on every push — one list, so a new target
# cannot miss CI.
FUZZ_TARGETS = sqlparse:FuzzParse sqlparse:FuzzAsOf plan:FuzzPlan \
	wire:FuzzRead wire:FuzzPrepared wire:FuzzLineage wire:FuzzTraceContext wire:FuzzReplMessages \
	sqlval:FuzzDecode engine:FuzzWALDecode engine:FuzzWALScan engine:FuzzDecodeTable \
	ops:FuzzTracesHandler prov:FuzzTraceUnmarshal pack:FuzzUnmarshal
fuzz_each = for t in $(FUZZ_TARGETS); do $(GO) test ./internal/$${t%:*} -fuzz "^$${t\#*:}$$" -fuzztime $(1) || exit 1; done

fuzz:
	$(call fuzz_each,30s)

fuzz-smoke:
	$(call fuzz_each,5s)

# WAL overhead and recovery-time measurements (EXPERIMENTS.md "Durability").
recover-bench:
	$(GO) run ./cmd/ldv-bench -exp durability | tee results/durability.txt

# Secondary-index speedup on selective TPC-H lookups (EXPERIMENTS.md
# "Planning"; target: >=10x on the point query at SF 0.02).
plan-bench:
	$(GO) run ./cmd/ldv-bench -exp planner -sf 0.02 | tee results/planner.txt

# Request-tracing overhead on a read-only workload (budget: <5%).
trace-bench:
	$(GO) run ./cmd/ldv-bench -exp tracing | tee results/tracing.txt

# Statement-statistics overhead plus the ldv_stat_statements surface itself
# (budget: <2%).
stat-demo:
	$(GO) run ./cmd/ldv-bench -exp introspection | tee results/introspection.txt

# Read scaling with streaming WAL replicas + steady-state lag
# (EXPERIMENTS.md "Replication").
repl-bench:
	$(GO) run ./cmd/ldv-bench -exp replication | tee results/replication.txt

# Text vs prepared vs pipelined throughput at 1/4/8 sessions
# (EXPERIMENTS.md "Prepared statements"; target: pipelined >=2x text at 8
# sessions with a >90% steady-state plan-cache hit rate).
proto-bench:
	$(GO) run ./cmd/ldv-bench -exp prepared | tee results/prepared.txt

# Wait-event accounting + ASH sampler overhead on a concurrent read
# workload, plus the ldv_stat_wait_events / ldv_stat_ash surface itself
# (budget: <2%).
ash-bench:
	$(GO) run ./cmd/ldv-bench -exp ash | tee results/ash.txt

# AS OF read overhead vs head reads plus vacuum reclaim rate under churn
# (EXPERIMENTS.md "Time travel").
asof-bench:
	$(GO) run ./cmd/ldv-bench -exp timetravel | tee results/timetravel.txt

# Boot a throwaway ldvdb with the ops endpoint enabled and show /metrics —
# the 30-second demo of the observability surface. Cleans up after itself.
ops-demo:
	@rm -rf /tmp/ldv-ops-demo && mkdir -p /tmp/ldv-ops-demo
	@$(GO) build -o /tmp/ldv-ops-demo/ldvdb ./cmd/ldvdb
	@/tmp/ldv-ops-demo/ldvdb -addr 127.0.0.1:15544 -data /tmp/ldv-ops-demo/data -ops 127.0.0.1:18089 & \
	pid=$$!; \
	for i in 1 2 3 4 5 6 7 8 9 10; do \
		curl -sf http://127.0.0.1:18089/metrics > /dev/null 2>&1 && break; \
		sleep 0.3; \
	done; \
	echo "== GET /metrics =="; curl -sf http://127.0.0.1:18089/metrics | head -30; \
	echo "== GET /traces =="; curl -sf http://127.0.0.1:18089/traces; echo; \
	kill $$pid; wait $$pid 2>/dev/null; \
	rm -rf /tmp/ldv-ops-demo

# Boot a primary and a read replica over TCP in one process, run a routed
# read-your-writes query, and promote the replica — the replication demo.
repl-demo:
	$(GO) run ./examples/replication

clean:
	rm -f *.ldvpkg test_output.txt bench_output.txt
