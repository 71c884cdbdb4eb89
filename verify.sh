#!/bin/sh
# Full verify: tier-1 (build + all tests), vet, the race-detector suites
# for the packages with concurrency (scheduler worker pool, snapshot
# cache, solver result cache, prefix-pruning walker, fault injector, the
# on-disk store with its goroutine hammer, and the serve daemon with its
# request hammer and admission control), the binary AST codec fuzz suite
# by name (round-trip byte-identity over the corpus and seeded mutants;
# truncated/bit-flipped/version-skewed frames must be rejected), a short
# native fuzz run of FuzzLink (test text linked onto a resolved system must
# equal the joined parse, or fail with the same error), the
# daemon smoke test by name (start a real listener, one gate round trip,
# clean drain), the cold-process-on-warm-store smoke (two CLI invocations
# sharing a store directory: the second must serve its jobs from the disk
# tier AND restore its snapshots through the parse-free decode path), the
# snapshot-record corruption round by name (a damaged snap.v2 record must
# degrade to a recompute miss through the digest/codec checks, never a
# wrong result), the crash-recovery campaign by name (seeded kill points
# in the store's write path, plus the daemon cold-gate byte-identity
# rounds), the remote-failover smoke (a dead daemon must fall back to
# local execution with byte-identical stdout, and report distinct exit
# codes with failover off), the 2-shard smoke (a sharded CLI run must
# render byte-identical verdicts to the plain run, with the parent's warm
# handoff pre-seeding the shared store), the perf-regression gate against
# the committed counter baseline (solver, front-end and sweep heap
# counters), and a smoke run of the fault-injection matrix. ROADMAP.md
# points here.
set -ex
go build ./...
go test ./...
go vet ./...
go test -race ./internal/sched/... ./internal/shard/... ./internal/program/... ./internal/faultinject/... ./internal/smt/... ./internal/concolic/... ./internal/server/... ./internal/store/...
go test -run 'TestCodec' -count=1 ./internal/minij
go test -run '^$' -fuzz '^FuzzLink$' -fuzztime 10s ./internal/minij
go test -run TestServerSmoke -count=1 ./internal/server
STORE_SMOKE=$(mktemp -d)
go run ./cmd/lisa assert -case zk-ephemeral -tests -store "$STORE_SMOKE/store" > /dev/null
go run ./cmd/lisa assert -case zk-ephemeral -tests -store "$STORE_SMOKE/store" > "$STORE_SMOKE/warm.out"
grep "served from the disk tier" "$STORE_SMOKE/warm.out"
grep "restored from the store (2 decoded, 0 deep-verified)" "$STORE_SMOKE/warm.out"
rm -rf "$STORE_SMOKE"
go test -run 'TestCorruptASTDegradesToMiss|TestStoreReadCorruptionDegradesToMiss' -count=1 ./internal/program
go test -run 'TestStoreCrashRecoveryCampaign' -count=1 ./internal/store
go test -run 'TestGateByteIdentityAfterCrash' -count=1 ./internal/server
FO_SMOKE=$(mktemp -d)
go build -o "$FO_SMOKE/lisa" ./cmd/lisa
"$FO_SMOKE/lisa" assert -case zk-ephemeral > "$FO_SMOKE/local.out"
"$FO_SMOKE/lisa" assert -case zk-ephemeral -remote http://127.0.0.1:1 -remote-retries 1 > "$FO_SMOKE/failover.out" 2> /dev/null
cmp "$FO_SMOKE/local.out" "$FO_SMOKE/failover.out"
rc=0
"$FO_SMOKE/lisa" assert -case zk-ephemeral -remote http://127.0.0.1:1 -remote-retries 0 -remote-failover=false > /dev/null 2>&1 || rc=$?
test "$rc" -eq 4
rm -rf "$FO_SMOKE"
SHARD_SMOKE=$(mktemp -d)
go build -o "$SHARD_SMOKE/lisa" ./cmd/lisa
"$SHARD_SMOKE/lisa" assert -case zk-ephemeral -tests | sed -n '/^verdicts:/,$p' > "$SHARD_SMOKE/plain.out"
"$SHARD_SMOKE/lisa" assert -case zk-ephemeral -tests -shards 2 -store "$SHARD_SMOKE/store" | sed -n '/^verdicts:/,$p' > "$SHARD_SMOKE/sharded.out"
cmp "$SHARD_SMOKE/plain.out" "$SHARD_SMOKE/sharded.out"
rm -rf "$SHARD_SMOKE"
go run ./cmd/lisabench -diff BENCH_13.json
go run ./cmd/lisabench -exp chaos -seed 1
