# Tier-1 gate: everything `make ci` runs must stay green.
#
#   make ci           vet + build + full test suite + race subset + smokes
#   make vet          go vet ./...
#   make build        go build ./...
#   make test         go test ./...
#   make race         race detector on every internal package plus the sim and
#                     rt layers — the fuzz seeds for the lock-free queues and
#                     request pool run as unit tests here, so real-goroutine
#                     interleavings are probed under -race on every CI pass.
#   make mtscale-smoke  tiny enqueue-scaling sweep (cmd/mtbench) that must
#                     pass the mtscale/v2 schema validator, plus validation of
#                     the committed BENCH_mtscale.json — whose 16-thread rows
#                     carry the perf gates (sharded <= shared ns/post; >= 1.2x
#                     completion throughput from 2 agents).
#   make critpath-smoke  tiny traced Fig 7a run (cmd/paperbench) piped through
#                     cmd/tracetool -check: fails unless every run's
#                     critical-path attribution sums exactly to its elapsed
#                     virtual time.
#   make topo-smoke   reduced topology sweep (cmd/topobench) whose output must
#                     pass the topo/v1 validator — including the claim that
#                     the hierarchical allreduce beats the flat ring at
#                     >= 1 MiB on the 2:1-oversubscribed fat-tree.
#   make chaos-smoke  full chaos sweep (cmd/chaosbench: fault plans x
#                     topologies x approaches) whose output must pass the
#                     chaos/v1 validator — zero invariant violations, dead
#                     links rerouted around, crashes detected and recovered
#                     from, offload detection no slower than baseline.
#   make net-smoke    real-transport smoke: a reduced cmd/netbench sweep over
#                     the loopback and Unix-socket backends that must pass the
#                     net/v1 validator, a two-process cmd/mpirun ping-pong over
#                     real Unix sockets, and validation of the committed
#                     BENCH_net.json — whose 16-thread rate rows carry the perf
#                     gate (offload >= direct message rate on every backend).
#   make telemetry-smoke  self-contained live-telemetry check (cmd/mtbench
#                     -telemetry-smoke: tiny sim + rt workload, one HTTP
#                     scrape, Prometheus-format validation), plus benchdiff
#                     self-diffs of every committed BENCH document — the
#                     perf-regression observatory's own regression gate.
#   make benchdiff    compare the working-tree BENCH documents against HEAD's
#                     committed generation (markdown trend tables; exits
#                     nonzero past tolerance). Run after a full regeneration.
#   make paper        every paper figure and table (cmd/paperbench -fig all
#                     -quick), regenerates results.txt in place.
#   make mtscale      full sweep, regenerates BENCH_mtscale.json in place.
#   make topo         full sweep, regenerates BENCH_topo.json in place.
#   make chaos        full sweep, regenerates BENCH_chaos.json in place.
#   make net          full sweep, regenerates BENCH_net.json in place.
#
# Every BENCH document is validated by `cmd/benchdiff -validate`, which
# dispatches on the document's schema tag.

GO ?= go

# The committed BENCH documents, BENCH_<name>.json.
BENCH_DOCS = mtscale topo chaos net

.PHONY: ci vet build test race mtscale-smoke critpath-smoke topo-smoke chaos-smoke net-smoke telemetry-smoke benchdiff paper mtscale topo chaos net

ci: vet build test race mtscale-smoke critpath-smoke topo-smoke chaos-smoke net-smoke telemetry-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/... ./sim ./rt/... ./mpi ./bench

mtscale-smoke:
	$(GO) run ./cmd/mtbench -out /tmp/mtscale_smoke.json -scale-iters 3 -rt-iters 512 -max-threads 8
	$(GO) run ./cmd/benchdiff -validate /tmp/mtscale_smoke.json
	$(GO) run ./cmd/benchdiff -validate BENCH_mtscale.json

critpath-smoke:
	$(GO) run ./cmd/paperbench -fig fig7a -iters 2 -approaches offload -trace /tmp/critpath_smoke.json > /dev/null
	$(GO) run ./cmd/tracetool -check /tmp/critpath_smoke.json

topo-smoke:
	$(GO) run ./cmd/topobench -iters 1 -out /tmp/topo_smoke.json > /dev/null
	$(GO) run ./cmd/benchdiff -validate /tmp/topo_smoke.json

chaos-smoke:
	$(GO) run ./cmd/chaosbench -out /tmp/chaos_smoke.json > /dev/null
	$(GO) run ./cmd/benchdiff -validate /tmp/chaos_smoke.json

net-smoke:
	$(GO) run ./cmd/netbench -quick -backends loopback,unix -out /tmp/net_smoke.json > /dev/null
	$(GO) run ./cmd/benchdiff -validate /tmp/net_smoke.json
	$(GO) run ./cmd/benchdiff -validate BENCH_net.json
	$(GO) build -o /tmp/mpirun_smoke ./cmd/mpirun
	$(GO) build -o /tmp/netbench_smoke ./cmd/netbench
	/tmp/mpirun_smoke -n 2 /tmp/netbench_smoke

telemetry-smoke:
	$(GO) run ./cmd/mtbench -telemetry-smoke
	for d in $(BENCH_DOCS); do \
		$(GO) run ./cmd/benchdiff BENCH_$$d.json BENCH_$$d.json > /dev/null || exit 1; \
	done

benchdiff:
	for d in $(BENCH_DOCS); do \
		git show HEAD:BENCH_$$d.json > /tmp/benchdiff_old_$$d.json || exit 1; \
	done
	for d in $(BENCH_DOCS); do \
		$(GO) run ./cmd/benchdiff /tmp/benchdiff_old_$$d.json BENCH_$$d.json || exit 1; \
	done

paper:
	$(GO) run ./cmd/paperbench -fig all -quick > results.txt

mtscale:
	$(GO) run ./cmd/mtbench -out BENCH_mtscale.json
	$(GO) run ./cmd/benchdiff -validate BENCH_mtscale.json

topo:
	$(GO) run ./cmd/topobench -out BENCH_topo.json
	$(GO) run ./cmd/benchdiff -validate BENCH_topo.json

chaos:
	$(GO) run ./cmd/chaosbench -out BENCH_chaos.json
	$(GO) run ./cmd/benchdiff -validate BENCH_chaos.json

net:
	$(GO) run ./cmd/netbench -out BENCH_net.json
	$(GO) run ./cmd/benchdiff -validate BENCH_net.json
