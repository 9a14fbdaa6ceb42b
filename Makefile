# Verification tiers and perf tooling (see ROADMAP.md).
#
#   make tier1           # the seed contract: build + tests
#   make tier2           # vet + tests under the race detector
#   make bench-baseline  # 1x bench smoke → BENCH_baseline.json snapshot
#   make bench-parallel  # sequential-vs-parallel suite → BENCH_parallel.json
#   make bench-index     # index/memoisation benchmarks → BENCH_index.json
#   make bench-smoke     # fail if the suite regresses >2x vs BENCH_index.json
#   make bench-columnar  # columnar-core benchmarks → BENCH_columnar.json + alloc gate
#   make bench-serve     # cache-hit vs cold-request latency
#   make bench-cache     # render-cache hot-hit vs re-render → BENCH_cache.json + 2x gate
#   make bench-load      # hfload run against a booted hfserved → BENCH_serve_load.json
#   make bench-load-router # hfload run through hfrouter over 2 shards → BENCH_router_load.json
#   make router-smoke    # boot 2 shards + hfrouter, verify routing end to end
#   make ingest-smoke    # upload a truncated corpus, stream the rest via events, diff vs hfanalyze
#   make serve           # run the HTTP analysis service (hfserved)
#   make perfbench       # one benchmark run (WORKLOAD, SEED, SECONDS, TRACE); see perfbench/METRICS.md
#   make check           # tier1 + tier2

.PHONY: tier1 tier2 check bench-baseline bench-parallel bench-index bench-smoke bench-columnar bench-serve bench-cache bench-load bench-load-router router-smoke ingest-smoke serve perfbench

# Benchmarks that claim parallel speedups must run at full machine width;
# an inherited GOMAXPROCS=1 (containers, cgroup limits) silently turns
# them into sequential measurements, which is how the original
# BENCH_parallel.json came to be recorded at gomaxprocs 1.
NPROC := $(shell nproc 2>/dev/null || echo 1)

tier1:
	go build ./... && go test ./...

tier2:
	go vet ./... && go test -race ./...

check: tier1 tier2

# Runs every benchmark exactly once and snapshots ns/op per stage into
# BENCH_baseline.json. Future perf PRs diff against this file; regenerate it
# (on the same machine class) whenever a hot path intentionally changes.
bench-baseline:
	go test -run '^$$' -bench . -benchtime 1x . \
	| awk 'BEGIN { print "{"; first = 1 } \
	  /^Benchmark/ { name = $$1; sub(/-[0-9]+$$/, "", name); \
	    if (!first) printf(",\n"); first = 0; \
	    printf("  \"%s\": {\"iterations\": %s, \"ns_per_op\": %s}", name, $$2, $$3) } \
	  END { print "\n}" }' \
	> BENCH_baseline.json
	@echo "wrote BENCH_baseline.json"

# Shared JSON emitter for -benchmem benchmark output: one object per
# benchmark with iterations, ns/op, B/op, allocs/op, and the gomaxprocs
# the run actually used (parsed from the -N name suffix; absent means 1).
BENCH_JSON_AWK = 'BEGIN { print "{"; first = 1 } \
	  /^Benchmark/ { name = $$1; procs = 1; \
	    if (match(name, /-[0-9]+$$/)) { procs = substr(name, RSTART + 1); sub(/-[0-9]+$$/, "", name) } \
	    if (!first) printf(",\n"); first = 0; \
	    printf("  \"%s\": {\"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s, \"gomaxprocs\": %s}", name, $$2, $$3, $$5, $$7, procs) } \
	  END { print "\n}" }'

# Records the full suite (models, K=6, Scale 0.1) pinned to one worker vs
# the default pool, plus the descriptive pair at bench scale, into
# BENCH_parallel.json next to BENCH_baseline.json. The gomaxprocs field
# qualifies the numbers: on one core the pairs coincide within noise.
bench-parallel:
	GOMAXPROCS=$(NPROC) go test -run '^$$' -benchtime 3x -benchmem . \
	  -bench 'SuiteScale10|SuiteDescriptive(Sequential)?$$' \
	| awk $(BENCH_JSON_AWK) \
	> BENCH_parallel.json
	@echo "wrote BENCH_parallel.json (gomaxprocs $(NPROC))"

# Records the analysis-index benchmarks — the descriptive suite over the
# shared index, memoized vs direct corpus categorisation, and the cold
# obligation-table build — into BENCH_index.json. BENCH_baseline.json is
# the pre-index "before"; this file is the "after" and the bench-smoke
# reference. Regenerate it (same machine class) when a hot path
# intentionally changes.
bench-index:
	GOMAXPROCS=$(NPROC) go test -run '^$$' -benchtime 3x -benchmem . \
	  -bench 'SuiteDescriptive$$|CategoriseCorpus|IndexObligationBuild' \
	| awk $(BENCH_JSON_AWK) \
	> BENCH_index.json
	@echo "wrote BENCH_index.json (gomaxprocs $(NPROC))"

# Fails when one run of the descriptive suite lands more than 2x above
# the committed BENCH_index.json snapshot. One iteration is noisy, hence
# the wide factor: this catches reintroduced corpus rescans (10x-class
# regressions), not percent-level drift. CI runs it on every push.
bench-smoke:
	@snap=$$(awk '/"BenchmarkSuiteDescriptive"/ { match($$0, /"ns_per_op": [0-9.]+/); print substr($$0, RSTART + 13, RLENGTH - 13) }' BENCH_index.json); \
	now=$$(go test -run '^$$' -bench 'SuiteDescriptive$$' -benchtime 1x . | awk '/^BenchmarkSuiteDescriptive/ { print $$3 }'); \
	awk -v now="$$now" -v snap="$$snap" 'BEGIN { \
	  if (now == "" || snap == "") { print "bench-smoke: missing measurement or snapshot"; exit 1 } \
	  if (now + 0 > 2 * snap) { printf("bench-smoke: FAIL %.0f ns/op is >2x the %.0f snapshot\n", now, snap); exit 1 } \
	  printf("bench-smoke: ok %.0f ns/op (%.2fx of the %.0f snapshot)\n", now, now / snap, snap) }'

# Records the columnar-core benchmarks — the descriptive suite over the
# dataset-cached groups plus the binary-vs-CSV load pair — into
# BENCH_columnar.json, then gates against BENCH_index.json: the refactor
# must at least halve the suite's allocs/op and must not exceed 2x its
# ns/op snapshot. Regenerate the snapshot (same machine class) when a hot
# path intentionally changes.
bench-columnar:
	GOMAXPROCS=$(NPROC) go test -run '^$$' -benchtime 3x -benchmem . \
	  -bench 'SuiteDescriptive$$|DatasetBinaryLoad|DatasetCSVLoad' \
	| awk $(BENCH_JSON_AWK) \
	> BENCH_columnar.json
	@echo "wrote BENCH_columnar.json (gomaxprocs $(NPROC))"
	@snapns=$$(awk '/"BenchmarkSuiteDescriptive"/ { match($$0, /"ns_per_op": [0-9.]+/); print substr($$0, RSTART + 13, RLENGTH - 13) }' BENCH_index.json); \
	snapalloc=$$(awk '/"BenchmarkSuiteDescriptive"/ { match($$0, /"allocs_per_op": [0-9.]+/); print substr($$0, RSTART + 17, RLENGTH - 17) }' BENCH_index.json); \
	nowns=$$(awk '/"BenchmarkSuiteDescriptive"/ { match($$0, /"ns_per_op": [0-9.]+/); print substr($$0, RSTART + 13, RLENGTH - 13) }' BENCH_columnar.json); \
	nowalloc=$$(awk '/"BenchmarkSuiteDescriptive"/ { match($$0, /"allocs_per_op": [0-9.]+/); print substr($$0, RSTART + 17, RLENGTH - 17) }' BENCH_columnar.json); \
	awk -v nowns="$$nowns" -v snapns="$$snapns" -v nowalloc="$$nowalloc" -v snapalloc="$$snapalloc" 'BEGIN { \
	  if (nowns == "" || snapns == "" || nowalloc == "" || snapalloc == "") { print "bench-columnar: missing measurement or snapshot"; exit 1 } \
	  if (nowalloc + 0 > snapalloc / 2) { printf("bench-columnar: FAIL %.0f allocs/op is not a 2x drop from the %.0f snapshot\n", nowalloc, snapalloc); exit 1 } \
	  if (nowns + 0 > 2 * snapns) { printf("bench-columnar: FAIL %.0f ns/op is >2x the %.0f snapshot\n", nowns, snapns); exit 1 } \
	  printf("bench-columnar: ok %.0f allocs/op (%.2fx of %.0f), %.0f ns/op (%.2fx of %.0f)\n", \
	    nowalloc, nowalloc / snapalloc, snapalloc, nowns, nowns / snapns, snapns) }'

# Cache-hit vs cold-request latency for the HTTP analysis service; the
# gap is the result cache's value proposition (see DESIGN.md §3.3).
bench-serve:
	go test -run '^$$' -bench 'Serve' -benchtime 3x ./internal/serve/

# Hot-path render-cache benchmark: the same fully-warm /v1/report request
# served from the rendered-section cache versus re-rendered on every hit
# (render tier disabled). Snapshots ns/op and B/op into BENCH_cache.json,
# then gates: the cached hit must be at least 2x faster than the
# re-render, or the tier is not paying for its memory.
bench-cache:
	go test -run '^$$' -bench 'ServeHotRender' -benchtime 200x -benchmem ./internal/serve/ \
	| awk $(BENCH_JSON_AWK) \
	> BENCH_cache.json
	@echo "wrote BENCH_cache.json"
	@cached=$$(awk '/"BenchmarkServeHotRenderCached"/ { match($$0, /"ns_per_op": [0-9.]+/); print substr($$0, RSTART + 13, RLENGTH - 13) }' BENCH_cache.json); \
	uncached=$$(awk '/"BenchmarkServeHotRenderUncached"/ { match($$0, /"ns_per_op": [0-9.]+/); print substr($$0, RSTART + 13, RLENGTH - 13) }' BENCH_cache.json); \
	awk -v cached="$$cached" -v uncached="$$uncached" 'BEGIN { \
	  if (cached == "" || uncached == "") { print "bench-cache: missing measurement"; exit 1 } \
	  if (2 * cached > uncached + 0) { printf("bench-cache: FAIL cached hit %.0f ns/op is not 2x faster than the %.0f re-render\n", cached, uncached); exit 1 } \
	  printf("bench-cache: ok cached hit %.0f ns/op, re-render %.0f ns/op (%.1fx)\n", cached, uncached, uncached / cached) }'

# Build version baked into hfserved/hfload (-version flag, /healthz,
# the turnup_build_info metric, and the load report's version field).
VERSION := $(shell git describe --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -ldflags "-X turnup/internal/version.override=$(VERSION)"

# End-to-end load run: boot hfserved on a local port, replay the default
# request mix at LOAD_RPS for LOAD_DURATION via hfload, and snapshot the
# per-route latency report into BENCH_serve_load.json (the load-smoke
# gate's baseline — regenerate on the same machine class when serving
# latency intentionally changes). Extra hfload flags go in LOAD_FLAGS,
# e.g. make bench-load LOAD_FLAGS="-mix hot=1 -slo-p99 250ms".
LOAD_ADDR     ?= 127.0.0.1:8098
LOAD_DURATION ?= 10s
LOAD_RPS      ?= 50
bench-load:
	go build $(LDFLAGS) -o /tmp/hfserved ./cmd/hfserved
	go build $(LDFLAGS) -o /tmp/hfload ./cmd/hfload
	@/tmp/hfserved -addr $(LOAD_ADDR) -max-scale 0.05 -log-format none & \
	SERVED=$$!; \
	/tmp/hfload -target http://$(LOAD_ADDR) -wait 30s \
	  -duration $(LOAD_DURATION) -rps $(LOAD_RPS) -seed 1 \
	  -out BENCH_serve_load.json $(LOAD_FLAGS); \
	STATUS=$$?; \
	kill -TERM $$SERVED 2>/dev/null; wait $$SERVED 2>/dev/null; \
	exit $$STATUS

# Routed variant of bench-load: two hfserved shards behind hfrouter, the
# same mix replayed through the router. The report lands in
# BENCH_router_load.json with the per-shard response distribution.
ROUTER_ADDR  ?= 127.0.0.1:8090
SHARD_A_ADDR ?= 127.0.0.1:8101
SHARD_B_ADDR ?= 127.0.0.1:8102
bench-load-router:
	go build $(LDFLAGS) -o /tmp/hfserved ./cmd/hfserved
	go build $(LDFLAGS) -o /tmp/hfrouter ./cmd/hfrouter
	go build $(LDFLAGS) -o /tmp/hfload ./cmd/hfload
	@/tmp/hfserved -addr $(SHARD_A_ADDR) -shard http://$(SHARD_A_ADDR) -max-scale 0.05 -log-format none & A=$$!; \
	/tmp/hfserved -addr $(SHARD_B_ADDR) -shard http://$(SHARD_B_ADDR) -max-scale 0.05 -log-format none & B=$$!; \
	/tmp/hfrouter -addr $(ROUTER_ADDR) -shards http://$(SHARD_A_ADDR),http://$(SHARD_B_ADDR) -log-format none & R=$$!; \
	/tmp/hfload -target http://$(ROUTER_ADDR) -wait 30s \
	  -duration $(LOAD_DURATION) -rps $(LOAD_RPS) -seed 1 \
	  -out BENCH_router_load.json $(LOAD_FLAGS); \
	STATUS=$$?; \
	kill -TERM $$R $$A $$B 2>/dev/null; wait $$R $$A $$B 2>/dev/null; \
	exit $$STATUS

# Boot two shards behind hfrouter and verify the sharded tier end to end:
# the router reports both shards healthy, a dataset uploaded through the
# router is retrievable through the router, the routed report matches
# hfanalyze over the same corpus byte for byte, and two well-known report
# keys land on different shards (X-Shard differs), proving the hash ring
# actually spreads load. See .github/workflows/ci.yml (router-smoke).
router-smoke:
	go build $(LDFLAGS) -o /tmp/hfserved ./cmd/hfserved
	go build $(LDFLAGS) -o /tmp/hfrouter ./cmd/hfrouter
	go build $(LDFLAGS) -o /tmp/hfgen ./cmd/hfgen
	go build $(LDFLAGS) -o /tmp/hfanalyze ./cmd/hfanalyze
	@set -e; \
	/tmp/hfserved -addr $(SHARD_A_ADDR) -shard http://$(SHARD_A_ADDR) -max-scale 0.05 -log-format none & A=$$!; \
	/tmp/hfserved -addr $(SHARD_B_ADDR) -shard http://$(SHARD_B_ADDR) -max-scale 0.05 -log-format none & B=$$!; \
	/tmp/hfrouter -addr $(ROUTER_ADDR) -shards http://$(SHARD_A_ADDR),http://$(SHARD_B_ADDR) -log-format none & R=$$!; \
	trap "kill -TERM $$R $$A $$B 2>/dev/null; wait $$R $$A $$B 2>/dev/null" EXIT; \
	for i in $$(seq 1 100); do \
	  curl -fsS http://$(ROUTER_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	curl -fsS http://$(ROUTER_ADDR)/healthz | grep -q "shards=2/2" || { echo "router-smoke: FAIL shards not all healthy"; exit 1; }; \
	/tmp/hfgen -scale 0.01 -seed 42 -out /tmp/router-smoke-corpus; \
	ID=$$(curl -fsS -F contracts=@/tmp/router-smoke-corpus/contracts.csv \
	  -F users=@/tmp/router-smoke-corpus/users.csv "http://$(ROUTER_ADDR)/v1/datasets?format=json" \
	  | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'); \
	test -n "$$ID" || { echo "router-smoke: FAIL upload returned no id"; exit 1; }; \
	curl -fsS "http://$(ROUTER_ADDR)/v1/report/growth?dataset=$$ID&models=false" > /tmp/router-smoke-routed.txt; \
	/tmp/hfanalyze -data /tmp/router-smoke-corpus -models=false -sections growth > /tmp/router-smoke-direct.txt; \
	diff -u /tmp/router-smoke-direct.txt /tmp/router-smoke-routed.txt || { echo "router-smoke: FAIL routed report differs from direct analysis"; exit 1; }; \
	S1=$$(curl -fsSI "http://$(ROUTER_ADDR)/v1/report/growth?seed=1&models=false" | tr -d '\r' | awk 'tolower($$1)=="x-shard:" {print $$2}'); \
	SHARD2=$$S1; SEED=2; \
	while [ "$$SHARD2" = "$$S1" ] && [ $$SEED -le 32 ]; do \
	  SHARD2=$$(curl -fsSI "http://$(ROUTER_ADDR)/v1/report/growth?seed=$$SEED&models=false" | tr -d '\r' | awk 'tolower($$1)=="x-shard:" {print $$2}'); \
	  SEED=$$((SEED+1)); \
	done; \
	test -n "$$S1" -a -n "$$SHARD2" -a "$$S1" != "$$SHARD2" || { echo "router-smoke: FAIL report keys did not spread across shards (got $$S1 / $$SHARD2)"; exit 1; }; \
	echo "router-smoke: ok (dataset on its owner, reports spread: $$S1 vs $$SHARD2)"

# Live-ingest smoke: generate a corpus, upload only the first half of its
# contracts, stream the remainder back through POST /v1/datasets/{id}/events
# as CSV rows, and require the generation-2 report to match hfanalyze over
# the complete corpus byte for byte — the end-to-end proof that appends,
# the incremental index, and generation-keyed caching compose correctly.
# See .github/workflows/ci.yml (ingest-smoke).
INGEST_ADDR ?= 127.0.0.1:8099
ingest-smoke:
	go build $(LDFLAGS) -o /tmp/hfserved ./cmd/hfserved
	go build $(LDFLAGS) -o /tmp/hfgen ./cmd/hfgen
	go build $(LDFLAGS) -o /tmp/hfanalyze ./cmd/hfanalyze
	@set -e; \
	/tmp/hfgen -scale 0.01 -seed 42 -out /tmp/ingest-smoke-corpus; \
	TOTAL=$$(wc -l < /tmp/ingest-smoke-corpus/contracts.csv); \
	HALF=$$(( TOTAL / 2 )); \
	head -n $$HALF /tmp/ingest-smoke-corpus/contracts.csv > /tmp/ingest-smoke-head.csv; \
	{ head -n 1 /tmp/ingest-smoke-corpus/contracts.csv; \
	  tail -n +$$(( HALF + 1 )) /tmp/ingest-smoke-corpus/contracts.csv; } > /tmp/ingest-smoke-rest.csv; \
	/tmp/hfserved -addr $(INGEST_ADDR) -max-scale 0.05 -log-format none & S=$$!; \
	trap "kill -TERM $$S 2>/dev/null; wait $$S 2>/dev/null" EXIT; \
	for i in $$(seq 1 100); do \
	  curl -fsS http://$(INGEST_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	ID=$$(curl -fsS -F contracts=@/tmp/ingest-smoke-head.csv \
	  -F users=@/tmp/ingest-smoke-corpus/users.csv "http://$(INGEST_ADDR)/v1/datasets?format=json" \
	  | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'); \
	test -n "$$ID" || { echo "ingest-smoke: FAIL upload returned no id"; exit 1; }; \
	GEN=$$(curl -fsS -D - -o /dev/null -H "Content-Type: text/csv" \
	  --data-binary @/tmp/ingest-smoke-rest.csv "http://$(INGEST_ADDR)/v1/datasets/$$ID/events" \
	  | tr -d '\r' | awk 'tolower($$1)=="x-dataset-generation:" {print $$2}'); \
	test "$$GEN" = "2" || { echo "ingest-smoke: FAIL append generation=$$GEN, want 2"; exit 1; }; \
	curl -fsS "http://$(INGEST_ADDR)/v1/report?dataset=$$ID&seed=1&models=false" > /tmp/ingest-smoke-served.txt; \
	/tmp/hfanalyze -data /tmp/ingest-smoke-corpus -seed 1 -models=false > /tmp/ingest-smoke-direct.txt; \
	diff -u /tmp/ingest-smoke-direct.txt /tmp/ingest-smoke-served.txt \
	  || { echo "ingest-smoke: FAIL ingested report differs from direct analysis"; exit 1; }; \
	echo "ingest-smoke: ok (generation-2 report matches hfanalyze over the full corpus)"

# Serve the simulate→analyse pipeline over HTTP (see README "Serving").
# Override flags via SERVE_FLAGS, e.g.
#   make serve SERVE_FLAGS="-addr :9090 -pprof -max-runs 4"
serve:
	go run ./cmd/hfserved $(SERVE_FLAGS)

# One run of the repository benchmark (BENCHMARK.json): perfbench/run.sh
# builds hfserved, hfrouter and perfbench under .bench_build/ and prints the
# run record and result line. Workloads, metrics and how to read them are in
# perfbench/METRICS.md, e.g.
#   make perfbench WORKLOAD=serve-cold SEED=3 TRACE=1
WORKLOAD ?= reproduce
SEED     ?= 1
SECONDS  ?= 20
TRACE    ?= 0
perfbench:
	bash perfbench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(SECONDS) --trace $(TRACE)
