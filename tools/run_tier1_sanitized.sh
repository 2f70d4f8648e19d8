#!/usr/bin/env bash
# Build the full tree with AddressSanitizer + UndefinedBehaviorSanitizer
# and run the tier-1 test suite under it, then build the across-run
# executors and the serve daemon with ThreadSanitizer and run them
# with real worker threads. A clean pass means the suite is free of
# heap errors, leaks-at-exit in test paths, UB that the instrumented
# build can detect, and data races in the host thread pool, the
# campaign engine and the daemon — run this before merging changes
# that touch memory handling or concurrency.
#
# Usage: tools/run_tier1_sanitized.sh [build-dir] [tsan-build-dir]
#   build-dir defaults to build-san, tsan-build-dir to build-tsan
#   (kept separate from the normal build/ so configurations never
#   share object files).

set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-san}"
tsan_build="${2:-$repo/build-tsan}"
jobs="$(nproc 2>/dev/null || echo 4)"

cmake -S "$repo" -B "$build" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DVARSIM_SANITIZE=address,undefined
cmake --build "$build" -j "$jobs"

# ctest discovers suites from the build, so a CMake wiring mistake
# would silently drop one; assert the binaries this gate exists to
# run (serialization and the JSONL parser, the cache image checks,
# the result store and its segments, the persistent checkpoint
# library and its round trips, the statistics paths, the CPU engines
# and the sampling engine) are actually present.
for t in test_sim test_stats test_mem test_core test_campaign \
         test_ckpt test_cpu test_sample; do
    [ -x "$build/tests/$t" ] || {
        echo "error: $build/tests/$t was not built" >&2
        exit 1
    }
done

# halt_on_error makes UBSan failures fatal instead of log-and-continue,
# so ctest actually reports them.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export ASAN_OPTIONS="detect_leaks=1"

ctest --test-dir "$build" --output-on-failure -j "$jobs"

# One full-trace smoke run under the sanitizers: VARSIM_DEBUG=All
# drives every DPRINTF format/argument pair and the run-scoped trace
# sink, paths the unit tests only sample. Output goes to a log; only
# the tail is interesting, and only on failure.
# The sampled compare drives the sampling controller's fast-forward
# and window paths from both sides of a batch.
tracelog="$build/trace_smoke.log"
if ! { VARSIM_DEBUG=All "$build/tools/varsim" run --workload oltp \
           --cpus 2 --runs 2 --warmup 5 --txns 20 &&
       VARSIM_DEBUG=All "$build/tools/varsim" compare \
           --workload oltp --cpus 2 --runs 2 --warmup 5 --txns 60 \
           --sample stratified:20:2:4 --dram-b 120; } \
    >"$tracelog" 2>&1; then
    echo "error: VARSIM_DEBUG=All smoke runs failed; log tail:" >&2
    tail -n 40 "$tracelog" >&2
    exit 1
fi

# The sampling determinism pin, explicitly: compiled-in-but-disabled
# sampling must reproduce the legacy goldens bit for bit, and this is
# the one place that claim runs under instrumented memory checking
# (the ctest sweep above runs it too; a named rerun keeps the gate
# obvious if the suite's test list ever changes).
"$build/tests/test_sample" \
    --gtest_filter='SampledDisabledGolden.*' >/dev/null || {
    echo "error: disabled-sampling golden failed under asan/ubsan" >&2
    exit 1
}

# The segment store's corruption claims, explicitly under instrumented
# memory checking: the truncation, bit-flip and byte-change sweeps
# hand the parser every malformed frame a torn disk could produce,
# and the format-2 checksum reads the mapping as unaligned 64-bit
# words, so ASan/UBSan are what prove the rejects happen without
# reading past a mapping. The store suites drive the journal tail's
# flat index (its staging hash, name lists and value arena) through
# replay, appends and the differential against the map replay, and
# the JSONL suites the parser and its prefix visit beneath it (named
# reruns for the same reason as the golden above).
"$build/tests/test_campaign" \
    --gtest_filter='SegmentFormat.*:StoreCompaction*:ResultStore*:TailIndex*' \
    >/dev/null &&
"$build/tests/test_sim" --gtest_filter='JsonLine*:JsonWriter*' \
    >/dev/null || {
    echo "error: segment, store or jsonl suites failed under" \
        "asan/ubsan" >&2
    exit 1
}

# The checkpoint path's corruption claims, explicitly under
# instrumented memory checking: an archive is unpacked inside its own
# read buffer and a cache image's valid lines are placed by its
# bitmap, so ASan is what proves that every truncated or bit-flipped
# archive, a newer build's archive, a cache image with a short line
# vector or a malformed bitmap, and a predictor image of the wrong
# length are rejected without a read or write past a buffer. Every
# object states its checkpoint layout in one function that saves and
# restores it, so the round trips run that code in both directions:
# whole systems on both fabrics (CkptRoundTrip, Checkpoint), the
# memory system and the directory rebuilt from its caches, the
# archive primitives, the library, and the branch predictors.
"$build/tests/test_ckpt" \
    --gtest_filter='CkptArchive.*:CkptLibrary*:*CkptRoundTrip.*:CkptSize.*' \
    >/dev/null &&
"$build/tests/test_sim" --gtest_filter='Checkpoint.*' >/dev/null &&
"$build/tests/test_core" --gtest_filter='Checkpoint.*' >/dev/null &&
"$build/tests/test_mem" \
    --gtest_filter='CacheArray*:DirectoryTest.RestoreRebuildsDirectoryFromCaches:MemSystemTest.*' \
    >/dev/null &&
"$build/tests/test_cpu" \
    --gtest_filter='*.SerializeRoundTrip:PredictorImages*' \
    >/dev/null || {
    echo "error: archive, cache-image or checkpoint round-trip" \
        "suites failed under asan/ubsan" >&2
    exit 1
}

# The coherence engine, explicitly under instrumented checking: both
# protocols' fill events capture `this` and the requestor, and their
# node sets are `1 << node` shifts, all in the one shared fabric core,
# so ASan/UBSan must see the random tester, the warm-vs-timed
# differential and the directory and system suites run through it.
"$build/tests/test_mem" \
    --gtest_filter='*CoherenceRandom*:DirectoryTest.*:MemSystemTest.*' \
    >/dev/null || {
    echo "error: coherence suites failed under asan/ubsan" >&2
    exit 1
}

# The event queue, explicitly under instrumented checking: the timing
# wheel links raw Event pointers into its slots and the far heap keeps
# entries that name them, so ASan is what proves that a descheduled,
# rescheduled or destroyed event never stays linked, through the
# differential test against the reference model and the churn and
# tombstone suites of both tiers.
"$build/tests/test_sim" --gtest_filter='EventQueue*' >/dev/null || {
    echo "error: event queue suites failed under asan/ubsan" >&2
    exit 1
}

# The CPU engines, explicitly under instrumented checking: the
# blocking engine (timed, and every model's functional warming) and
# the OoO engine share one phase, debt and miss state, which must
# carry across fast/detailed mode switches and checkpoints, so
# ASan/UBSan must see the engine unit tests and the sampled runs and
# window placements that switch modes mid-run.
"$build/tests/test_cpu" >/dev/null &&
"$build/tests/test_sample" \
    --gtest_filter='Sampled*:WindowPlacement.*' >/dev/null || {
    echo "error: cpu engine suites failed under asan/ubsan" >&2
    exit 1
}

# ---- Out-of-process compaction kill-9: the crash-ordering claim ----
# VARSIM_STORE_CRASH_COMPACT kills `varsim campaign compact` after the
# segment file lands but before the manifest points at it — the
# worst-ordered crash. A reopen must see the pure-JSONL store exactly
# as it was (the orphan segment is invisible), and a real compaction
# afterwards must leave the report byte-identical. The in-process
# death test covers the library path; this drives the actual CLI.
camp_dir="$build/compact-soak.camp"
rm -rf "$camp_dir"
"$build/tools/varsim" campaign run --dir "$camp_dir" \
    --workload oltp --cpus 2 --runs 4 --warmup 5 --txns 20 \
    >/dev/null
"$build/tools/varsim" campaign report --dir "$camp_dir" \
    >"$build/compact-before.txt"
if VARSIM_STORE_CRASH_COMPACT=1 "$build/tools/varsim" campaign \
    compact --dir "$camp_dir" >/dev/null 2>&1; then
    echo "error: compaction crash hook did not kill the process" >&2
    exit 1
fi
"$build/tools/varsim" campaign status --dir "$camp_dir" \
    | grep -Fq "4 run(s) recorded" || {
    echo "error: store damaged by a compaction killed mid-swap" >&2
    exit 1
}
"$build/tools/varsim" campaign compact --dir "$camp_dir" >/dev/null
"$build/tools/varsim" campaign report --dir "$camp_dir" \
    >"$build/compact-after.txt"
cmp -s "$build/compact-before.txt" "$build/compact-after.txt" || {
    echo "error: report changed across kill-9 + real compaction" >&2
    diff "$build/compact-before.txt" "$build/compact-after.txt" >&2 \
        || true
    exit 1
}

echo "tier-1 suite clean under address,undefined sanitizers;" \
    "compaction kill-9 left the store intact"

# ---- ThreadSanitizer flavor: the across-run executors' race gate ----
# TSan is incompatible with ASan, so it gets its own tree. Every
# simulation runs on one event queue on one thread; parallelism is
# across runs, so the suites run here are what spreads runs over
# host threads: the HostThreadPool (batches and posted tasks),
# runManyBatch and its exception path, the golden that pins results
# as identical for every host thread count, and the campaign engine
# with its store, whose rounds append runs from every worker. Their
# claim is that independent runs share nothing but the executor's
# and the store's own synchronization — TSan proves the absence of
# any side channel. The checkpoint path shares more: library fetches
# run concurrently outside the library lock (CkptLibrary.*, and a
# campaign fetching a configuration's positions on the pool),
# configurations warm concurrently behind one once-guard each (a
# multi-threaded `ckpt create`, and threads preparing cells of one
# campaign at once), and concurrent restores read one snapshot in
# place. The campaign death
# tests exit from a forked child; they finish because the process
# pool is never destroyed, so exit() joins no threads the child does
# not have.
cmake -S "$repo" -B "$tsan_build" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DVARSIM_SANITIZE=thread
# varsim_cli is the CLI binary target (output name "varsim"); the
# bare name is the header-only INTERFACE library, which Makefile
# generators have no build rule for.
cmake --build "$tsan_build" -j "$jobs" \
    --target test_core test_ckpt test_campaign test_serve varsim_cli

for t in test_core test_ckpt test_campaign test_serve; do
    [ -x "$tsan_build/tests/$t" ] || {
        echo "error: $tsan_build/tests/$t was not built" >&2
        exit 1
    }
done

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
ctest --test-dir "$tsan_build" --output-on-failure -j "$jobs" \
    --no-tests=error \
    -R '^((HostThreadPool|RunManyBatch|RunManyExceptions|CkptLibrary|Campaign|CampaignDeathTest|ResultStore|ResultStoreDeathTest|StoreCompaction|StoreCompactionDeathTest|SegmentFormat)\.|GoldenDeterminism\.HostThreadCountInvariant$|CkptCampaign\.(HoleInLibraryRestoresOnlyThePrefix|ConcurrentWarmUpPublishesTheSerialObjects|ConfigWarmsOnceUnderConcurrentPrepares)$|Checkpoint\.ConcurrentRestoresReadTheSnapshotInPlace$)'

echo "across-run executors, campaign store and checkpoint" \
    "fetch/restore clean under thread sanitizer"

# ---- Service soak: the serve daemon's data-race + crash gate ----
# Phase 1, in-process under TSan: the scheduler/daemon suites plus
# the e2e soak scaled up to its CI size — 8 concurrent client
# threads pushing 200 campaigns through one daemon (ctest runs the
# same test at a 24-campaign smoke size; this is the real load).
# The daemon's claim is that worker threads, watch streams, and the
# acceptor share state only under the scheduler mutex — TSan holds
# it to that across hundreds of concurrent campaigns.
VARSIM_SOAK_CAMPAIGNS=200 "$tsan_build/tests/test_serve" \
    --gtest_filter='ServeScheduler.*:ServeE2e.*' || {
    echo "error: serve soak failed under thread sanitizer" >&2
    exit 1
}

# Phase 2, out-of-process: the kill-safety claim with a real kill.
# Submit campaigns to a real daemon, SIGKILL it mid-flight (no
# drain, no signal handler — nothing runs), restart on the same
# root, and require that every campaign is resumed and runs to
# completion. This is the one path gtest cannot exercise honestly
# (fork/exec under TSan inside a test binary is off the table).
soak_root="$tsan_build/serve-soak"
rm -rf "$soak_root"
mkdir -p "$soak_root"
"$tsan_build/tools/varsim" serve --root "$soak_root" --workers 2 \
    >"$soak_root/daemon1.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 100); do
    [ -S "$soak_root/serve.sock" ] && break
    sleep 0.1
done
[ -S "$soak_root/serve.sock" ] || {
    echo "error: daemon never created its socket; log:" >&2
    cat "$soak_root/daemon1.log" >&2
    exit 1
}

# 6 campaigns x 40 runs each: far more work than the daemon can
# finish before the kill below lands mid-flight.
for i in $(seq 1 6); do
    "$tsan_build/tools/varsim" client submit \
        --root "$soak_root" --tenant "soak$((i % 2))" \
        --name "camp$i" --workload oltp --cpus 2 \
        --warmup 5 --txns 20 --runs 40 --seed "$((400 + i))" \
        >/dev/null
done

kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true

# The stale socket file from the killed daemon still exists, so
# readiness here is the startup line, not the socket.
"$tsan_build/tools/varsim" serve --root "$soak_root" --workers 2 \
    >"$soak_root/daemon2.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 100); do
    grep -q "campaign(s) resumed" "$soak_root/daemon2.log" && break
    sleep 0.1
done
grep -q "6 campaign(s) resumed" "$soak_root/daemon2.log" || {
    echo "error: restarted daemon did not resume all 6; log:" >&2
    cat "$soak_root/daemon2.log" >&2
    kill "$daemon_pid" 2>/dev/null || true
    exit 1
}

# A seventh campaign at the lowest priority of an existing tenant
# stays queued behind that tenant's resumed campaigns; cancelled
# there, it never gets a store. Reporting it must be an error reply
# from a daemon that stays up, not a fatal that takes every
# tenant's campaign down with it.
"$tsan_build/tools/varsim" client submit \
    --root "$soak_root" --tenant soak0 --name queued --priority -1 \
    --workload oltp --cpus 2 --warmup 5 --txns 20 --runs 2 \
    --seed 407 >/dev/null
"$tsan_build/tools/varsim" client cancel --root "$soak_root" \
    --id soak0/queued >/dev/null
if "$tsan_build/tools/varsim" client report --root "$soak_root" \
       --id soak0/queued >"$soak_root/report-queued.log" 2>&1; then
    echo "error: report of a campaign with no store succeeded" >&2
    kill "$daemon_pid" 2>/dev/null || true
    exit 1
fi
"$tsan_build/tools/varsim" client ping --root "$soak_root" \
    >/dev/null || {
    echo "error: daemon down after a report with no store; log:" >&2
    cat "$soak_root/daemon2.log" >&2
    exit 1
}

"$tsan_build/tools/varsim" client drain --root "$soak_root" || {
    echo "error: drain after restart failed" >&2
    kill "$daemon_pid" 2>/dev/null || true
    exit 1
}
wait "$daemon_pid"

# Every campaign's store must hold exactly its 40 runs — the
# resumed daemon finished the interrupted work without duplicating
# any record the first daemon had already appended.
for i in $(seq 1 6); do
    store="$soak_root/tenants/soak$((i % 2))/camp$i/store"
    runs=$(grep -c '"type":"run"' "$store/manifest.jsonl")
    [ "$runs" -eq 40 ] || {
        echo "error: camp$i has $runs/40 runs after resume" >&2
        exit 1
    }
done

echo "serve daemon clean under thread sanitizer (200-campaign" \
    "soak), kill-9/restart resumed all campaigns, and a report" \
    "of a queued cancelled campaign left the daemon up"
