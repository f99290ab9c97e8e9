# Convenience targets; everything is plain `go` underneath (stdlib only).

.PHONY: check fmt test vet test-race race perfbench fuzz bench bench-go bench-push bench-hotpath bench-chaos bench-rest bench-fleet bench-rollup bench-slo drills harness run verify

check: fmt test vet test-race vet-push vet-trace vet-rest vet-fleet vet-rollup vet-slo drills perfbench  ## the default CI gate: gofmt + build + tests + vet + race detector + chaos drills + benchmark module

fmt:             ## gofmt gate over tracked Go files (git ls-files skips build dirs); fails if any needs formatting
	@out=$$(git ls-files '*.go' | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

drills:          ## fast chaos-drill smoke: every catalog scenario + unit drills under -race
	go test -race -run Drill -count=1 ./internal/slurm/ ./internal/core/ ./internal/chaos/ ./internal/fleet/

.PHONY: vet-push
vet-push:        ## focused gate on the push subsystem (vet + race over its packages)
	go vet ./internal/push/ ./internal/browser/ ./cmd/loadgen/
	go test -race ./internal/push/ ./internal/browser/

.PHONY: vet-trace
vet-trace:       ## focused gate on span tracing (vet + race over the instrumented layers)
	go vet ./internal/trace/ ./internal/cache/ ./internal/resilience/ ./internal/slurmcli/
	go test -race ./internal/trace/

.PHONY: vet-rest
vet-rest:        ## focused gate on the REST backend (vet + race over its packages)
	go vet ./internal/slurmrest/ ./cmd/dashboard/
	go test -race ./internal/slurmrest/

.PHONY: vet-fleet
vet-fleet:       ## focused gate on the scale-out tier (vet + race over its packages)
	go vet ./internal/fleet/ ./cmd/dashboard/ ./cmd/loadgen/
	go test -race ./internal/fleet/

.PHONY: vet-rollup
vet-rollup:      ## focused gate on the rollup pipeline (vet + race over its layers)
	go vet ./internal/slurm/ ./internal/core/ ./cmd/loadgen/
	go test -race -run Rollup ./internal/slurm/ ./internal/slurmcli/ ./internal/slurmrest/ ./internal/core/

.PHONY: vet-slo
vet-slo:         ## focused gate on the SLO engine (vet + race over every wired layer)
	go vet ./internal/slo/ ./internal/core/ ./internal/fleet/ ./internal/chaos/
	go test -race -run SLO -count=1 ./internal/slo/ ./internal/core/ ./internal/fleet/ ./internal/chaos/

test:            ## full test suite
	go build ./... && go test ./...

vet:             ## static analysis
	go vet ./...

test-race:       ## test suite under the race detector
	go test -race ./...

race: test-race  ## alias for test-race

perfbench:       ## vet + test the benchmark module (its own go.mod, so the root ./... never compiles it)
	cd perfbench && go vet ./... && go test ./...

# Time budget for each fuzz target.
FUZZTIME = 30s

fuzz:            ## run each fuzz target for FUZZTIME (not part of check; plain go test replays the seed corpus)
	go test -run '^$$' -fuzz '^FuzzNodeListContains$$' -fuzztime $(FUZZTIME) ./internal/slurm/
	go test -run '^$$' -fuzz '^FuzzMatch$$' -fuzztime $(FUZZTIME) ./internal/etag/
	go test -run '^$$' -fuzz '^FuzzAcceptsGzip$$' -fuzztime $(FUZZTIME) ./internal/core/
	go test -run '^$$' -fuzz '^FuzzParseTRES$$' -fuzztime $(FUZZTIME) ./internal/slurm/
	go test -run '^$$' -fuzz '^FuzzParseDuration$$' -fuzztime $(FUZZTIME) ./internal/slurmcli/

bench: check     ## CI gate + loadgen smoke on the simulated clock -> BENCH_latency.json
	go run ./cmd/loadgen -smoke -users 25 -rounds 8 -interval 5s \
		-max-error-rate 0 -bench-out BENCH_latency.json

bench-go:        ## every Go benchmark (one per paper table/figure + package benches)
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

bench-push:      ## polling vs SSE upstream-RPC comparison -> BENCH_push.json
	go run ./cmd/loadgen -sse -users 50 -rounds 6 -interval 75s \
		-max-sse-rpc-ratio 2 -bench-out BENCH_push.json

bench-hotpath: check  ## encode-once vs re-encode hit path -> BENCH_hotpath.json (gated)
	go run ./cmd/loadgen -hotpath -hotpath-requests 28000 \
		-min-hotpath-alloc-ratio 5 -max-trace-allocs 3 -bench-out BENCH_hotpath.json

bench-chaos: drills  ## full chaos catalog under open-loop load, SLO-gated -> BENCH_chaos.json
	go run ./cmd/loadgen -chaos all -arrival-rate 400 -seed 7 \
		-chaos-wall 250ms -fill-cap 24 -bench-out BENCH_chaos.json

bench-rest: vet-rest  ## CLI vs REST backend A/B + token-scope probes -> BENCH_rest.json (gated)
	go run ./cmd/loadgen -backend-ab -ab-requests 300 \
		-max-rest-p95-ratio 1.5 -bench-out BENCH_rest.json

bench-fleet: vet-fleet  ## 1->4 replica scale-out: RPC flatness + kill drill -> BENCH_fleet.json (gated)
	go run ./cmd/loadgen -fleet -users 50 -fleet-replicas 4 -rounds 6 \
		-interval 75s -max-fleet-rpc-ratio 1.3 -bench-out BENCH_fleet.json

bench-slo: vet-slo  ## SLI recording allocs/op + chaos alert truth table -> BENCH_slo.json (gated)
	go run ./cmd/loadgen -slo -max-slo-allocs 1 -bench-out BENCH_slo.json

bench-rollup: vet-rollup  ## rollup vs raw-scan latency at 1x/100x/1000x history -> BENCH_rollup.json (gated)
	go run ./cmd/loadgen -rollup -rollup-requests 40 \
		-max-rollup-p95-ratio 1.5 -bench-out BENCH_rollup.json

harness:         ## regenerate every paper artifact (EXPERIMENTS.md numbers)
	go run ./cmd/benchharness

run:             ## live dashboard on :8080 over a small simulated cluster
	go run ./cmd/dashboard -small

verify: test     ## CI-style: tests + recorded outputs
	go test ./... 2>&1 | tee test_output.txt
	go test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
