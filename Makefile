# Mirrors .github/workflows/ci.yml so local runs and CI agree.

RACE_PKGS := ./internal/transport/ ./internal/faultinject/ ./internal/tensor/ ./internal/nn/ ./internal/collective/ ./internal/horovod/ ./internal/telemetry/ ./internal/obs/ ./internal/fp16/ ./internal/modelhealth/
FUZZTIME  ?= 10s

# Statement-coverage floor across ./... — measured 76.9% when the
# chaos/recovery suite landed; the slack absorbs small refactors, not
# untested subsystems.
COVER_FLOOR ?= 74.0
COVER_OUT   ?= /tmp/segscale-cover.out

.PHONY: build test test-cpu race lint vet cross-build fuzz-smoke trace-smoke chaos-smoke obs-smoke attr-smoke elastic-smoke fp16-smoke health-smoke cover bench-json bench-check ci

build:
	go build ./...

test:
	go test ./...

# test-cpu reruns the GOMAXPROCS-sensitive packages at one and two
# procs, so per-entry proc pinning, the collectives' schedules and the
# kernels' worker splits are checked whatever the runner's core count.
test-cpu:
	go test -cpu 1,2 ./cmd/segbench/ ./internal/collective/ ./internal/transport/ ./internal/tensor/

race:
	go test -race $(RACE_PKGS)
	go test -race -run 'TestElastic|TestMixedPrecision|TestHealthLedgerGolden|TestHealthDivergence' ./internal/train/

vet:
	go vet ./...

# cross-build keeps the non-amd64 build, whose GEMM tile is pure Go,
# compiling and vet-clean.
cross-build:
	GOARCH=arm64 go vet ./internal/tensor/ && GOARCH=arm64 go build ./...

lint: vet
	go run ./cmd/seglint -suppressions ./...

fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzRoundTrip -fuzztime=$(FUZZTIME) ./internal/fp16/
	go test -run='^$$' -fuzz=FuzzHalfBits -fuzztime=$(FUZZTIME) ./internal/fp16/
	go test -run='^$$' -fuzz=FuzzLoad$$ -fuzztime=$(FUZZTIME) ./internal/checkpoint/
	go test -run='^$$' -fuzz=FuzzLoadState -fuzztime=$(FUZZTIME) ./internal/checkpoint/
	go test -run='^$$' -fuzz=FuzzReadChromeTrace -fuzztime=$(FUZZTIME) ./internal/timeline/

# trace-smoke runs the simulator end-to-end into the trace tooling:
# summit-sim writes a Chrome trace and a Prometheus dump, trace-stats
# must analyse the trace.
trace-smoke:
	go run ./cmd/summit-sim -gpus 6,132 -timeline /tmp/segscale-trace.json -prom /tmp/segscale-metrics.prom
	go run ./cmd/trace-stats /tmp/segscale-trace.json

# chaos-smoke checks the fault-injection reproducibility contract:
# the same chaos seed must yield a byte-identical simulator report.
chaos-smoke:
	go run ./cmd/summit-sim -gpus 1,6,24 -chaos-seed 1 > /tmp/segscale-chaos-a.txt
	go run ./cmd/summit-sim -gpus 1,6,24 -chaos-seed 1 > /tmp/segscale-chaos-b.txt
	diff /tmp/segscale-chaos-a.txt /tmp/segscale-chaos-b.txt

# obs-smoke drives the live observability plane end to end: serve,
# scrape /metrics + /healthz + /debug/attribution, validate scraped
# names with seglint and the attribution ledger with seg-compare.
obs-smoke:
	./scripts/obs_smoke.sh

# attr-smoke is the regression gate's own test: a clean run against an
# injected rank-2 straggler must fail seg-compare and blame rank 2.
attr-smoke:
	./scripts/attr_smoke.sh

# elastic-smoke drives the elastic-membership story end to end:
# crash -> shrink -> regrow on the real trainer, byte-identical across
# reruns, then the seg-compare hier-vs-flat A/B gate at 1056 ranks.
elastic-smoke:
	./scripts/elastic_smoke.sh

# fp16-smoke drives the mixed-precision story end to end: same-seed
# -fp16 reruns must be byte-identical, then the seg-compare
# fp32-vs-fp16 A/B gate at 1056 ranks (the compressed wire must win,
# and the gate must see the direction).
fp16-smoke:
	./scripts/fp16_smoke.sh

# health-smoke drives the training-health plane end to end: a healthy
# run stays sentinel-silent with a byte-deterministic ledger, a
# blown-LR run trips the divergence sentinels with provenance and
# dumps the flight window, and the seg-compare health gate hard-fails
# the diverged candidate.
health-smoke:
	./scripts/health_smoke.sh

# bench-json regenerates the committed performance baseline (full
# timing iterations). Run it on kernel or allocation-path changes and
# commit the result; docs/PERFORMANCE.md explains how to read it.
bench-json:
	go run ./cmd/segbench -o BENCH_kernels.json

# bench-check is the CI gate: a -fast run must match the committed
# baseline's schema and benchmark set, and may not allocate more per
# op. Timing deltas are advisory (CI hardware varies; allocation
# counts, measured at GOMAXPROCS=1, do not).
bench-check:
	go run ./cmd/segbench -fast -o /tmp/segscale-bench.json -check BENCH_kernels.json

cover:
	go test -count=1 -coverprofile=$(COVER_OUT) ./...
	@total=$$(go tool cover -func=$(COVER_OUT) | tail -n 1 | awk '{print $$3}' | tr -d '%'); \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { \
		if (t+0 < f+0) { printf "FAIL: coverage %.1f%% below floor %.1f%%\n", t, f; exit 1 } \
		printf "coverage %.1f%% >= floor %.1f%%\n", t, f }'

ci: build lint cross-build test test-cpu race fuzz-smoke trace-smoke chaos-smoke obs-smoke attr-smoke elastic-smoke fp16-smoke health-smoke bench-check cover
