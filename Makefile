GO ?= go

.PHONY: check fmt vet importgate build bench-check test race bench obs-bench restore-bench write-bench delete-bench warm-bench sim-bench alloc-bench fuzz-smoke loc

# Tier-1 gate: formatting, vet, import boundaries, build, and the full
# suite under the race detector (the TCP data path is exercised by
# genuinely concurrent tests).
check: fmt vet importgate build bench-check race

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Transport-neutrality gate, both ways. The shared library layers (store,
# fusecache, core, proto) and the whole real TCP path (rpc, manager,
# benefactor, obs, cmd/*, examples/*) must never grow a dependency on the
# simulation engine: only the allow-listed simulation packages — and the
# facade, which re-exports the engine for simulation users — may import
# internal/simtime. And the simulation packages must never reach the TCP
# path: none imports internal/rpc, internal/filecache or the root nvmalloc
# package, so what they report is virtual time alone. The metadata router
# (internal/router) sits under both substrates and belongs to neither: it
# imports no transport — not net, internal/rpc, internal/simstore,
# internal/filecache or the root nvmalloc package. Non-test sources only;
# _test.go files are exempt. bench/ is skipped: it is a separate module
# (nvmperf), not part of the library.
SIM_PKGS := internal/(simtime|sim|simstore|cluster|device|netsim|mpi|pfs|workloads|experiments)/

importgate:
	@bad=$$(grep -rl '"nvmalloc/internal/simtime"' --include='*.go' --exclude-dir=bench . \
		| grep -v '_test\.go$$' \
		| sed 's|^\./||' \
		| grep -v -E '^(nvmalloc\.go|$(SIM_PKGS))'); \
	if [ -n "$$bad" ]; then \
		echo "internal/simtime imported outside the simulation allowlist:"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rlE '"nvmalloc(/internal/(rpc|filecache))?"' --include='*.go' internal \
		| grep -v '_test\.go$$' \
		| grep -E '^$(SIM_PKGS)'); \
	if [ -n "$$bad" ]; then \
		echo "internal/rpc, internal/filecache or nvmalloc imported by the simulation allowlist:"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -lE '"(net(/[a-z/]+)?|nvmalloc(/internal/(rpc|simstore|filecache))?)"' internal/router/*.go \
		| grep -v '_test\.go$$'); \
	if [ -n "$$bad" ]; then \
		echo "net, internal/rpc, internal/simstore, internal/filecache or nvmalloc imported by internal/router:"; \
		echo "$$bad"; exit 1; \
	fi

build:
	$(GO) build ./...

# bench/ is a module of its own (BENCHMARK.json's nvmperf), so `./...` from
# the root never descends into it: this is what notices a root-module change
# that breaks what the benchmark compiles against. ~10 s.
bench-check:
	$(GO) vet -C bench ./...
	$(GO) build -C bench -o /dev/null .
	$(GO) test -C bench ./...

test:
	$(GO) test ./...

# The deterministic simulation suites are CPU-heavy; under the race
# detector they need more than the default 10m per-package timeout.
race:
	$(GO) test -race -timeout 30m ./...

bench:
	$(GO) test -bench=RPCStore -benchmem ./internal/rpc

# Instrumentation cost: default metrics/events vs obs.Disabled(). The two
# modes must stay within noise of each other (<5%).
obs-bench:
	$(GO) test -run xxx -bench=RPCObsOverhead -benchtime 2s -count 3 ./internal/rpc

# The local rows of the ckpt-cycle restore ledger (EXPERIMENTS.md): a cold
# sequential read-back of a 128-chunk file on three 1 ms devices (ms/sweep,
# demand misses and wasted read-ahead chunks per sweep, the in-flight
# peak); and a restore of the previous checkpoint after one ckpt-cycle step
# of writes to a 128-chunk variable (ms/restore, and gets/restore, which
# must be 0). Seconds, not minutes; measure on an idle host.
restore-bench:
	$(GO) test -run xxx -bench='RestoreReadBack|RestoreAfterWrites' -benchtime 10x -count 3 ./internal/rpc

# The local row of the seq-stream write ledger (EXPERIMENTS.md): 1 MiB
# WriteAt+Sync ops overwriting a region four times the chunk cache on three
# 1 ms devices. Reports ms/op and chunk gets per op, which must be 0: a
# write reads nothing it overwrites. Seconds; measure on an idle host.
write-bench:
	$(GO) test -run xxx -bench=SeqWriteSync -benchtime 64x -count 3 ./internal/rpc

# The local row of the meta-churn delete ledger (EXPERIMENTS.md): Create +
# Delete of a 3-chunk file on a loopback manager with 3 benefactors at
# replication 2. Reports us/op and delete frames per op, which must be 3 —
# one per benefactor, not one per freed replica. Seconds; measure idle.
delete-bench:
	$(GO) test -run xxx -bench=ManagerDelete -benchtime 2000x -count 3 ./internal/rpc

# Warm-restart read throughput (EXPERIMENTS.md, "Warm restarts"): fresh
# clients read an 8 MiB file in 64 KiB chunks off two benefactors behind
# 1.5 ms emulated SSDs — cold (every chunk over the wire), file-warm (every
# chunk from the NVC1 file tier a previous client spilled to) and RAM-warm.
# Reports MB/s per state. Seconds; measure on an idle host.
warm-bench:
	$(GO) test -run xxx -bench=WarmRestart -benchtime 5x -count 3 .

# The local row of the sim-mm ledger (EXPERIMENTS.md): one Fig3(Quick()) and
# one Table7(Quick()) simulator run per repetition, reported as wall seconds
# per repetition. The simulated results are fixed; this is the CPU cost of an
# event and a resident page. Tens of seconds; measure on an idle host.
sim-bench:
	$(GO) test -run xxx -bench 'SimFig3Quick|SimTable7Quick' -benchtime 1x -count 3 ./internal/experiments

# Allocation gate for the NVM1 binary data path: the frame codec and arena
# must run allocation-free, and a cached TCP chunk get must allocate at most
# two chunk sizes of heap (an absolute ceiling). A page fault at capacity
# must allocate nothing either: it refills the LRU victim's frame; nor may a
# resident page hit. The simulator's Sleep, Yield, Chan ping-pong and
# contended Resource.Use allocate nothing in steady state. Run without
# -race — the race runtime's instrumentation would drown the budgets.
alloc-bench:
	$(GO) test -count 1 -run 'TestFrameCodecZeroAlloc|TestArenaZeroAlloc' ./internal/proto
	$(GO) test -count 1 -run TestAllocBudgetCachedChunkGet ./internal/rpc
	$(GO) test -count 1 -run 'TestPageFaultZeroAlloc|TestPageHitZeroAlloc' ./internal/fusecache
	$(GO) test -count 1 -run TestSimtimeZeroAlloc ./internal/simtime

# Short coverage-guided smoke over the NVM1 frame decoder and the NVC1
# shard-snapshot decoder: any accepted input must be internally consistent
# (round-trip / in-bounds index), any rejected input must fail clean.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzDecodeFrame -fuzztime 15s ./internal/proto
	$(GO) test -run xxx -fuzz FuzzDecodeNVC1Index -fuzztime 15s ./internal/filecache

# Non-test lines per package of the root module (internal/*, cmd/*,
# examples/* and the root package) and their total — the figures
# ROADMAP.md and CHANGES.md track. bench/ is a module of its own.
loc:
	@total=0; \
	for d in internal/* cmd/* examples/* .; do \
		n=$$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l); \
		total=$$((total + n)); \
		printf '%-32s %s\n' $$d $$n; \
	done; \
	printf '%-32s %s\n' total $$total
