#!/bin/sh
# The simulator's bytes on both coherence fabrics: `varsim run` with
# the bus and with the directory (timed and sampled, 4 and 16 CPUs,
# plus a sampled 16-node Apache run and a sampled 16-node OoO OLTP
# run on the bus) must print the same registry dumps (names, order
# and values) and the same report as the `*.stats` and `*.out` files
# beside the fixture, and `ckpt create` with either CPU model must
# write checkpoint objects with the same checksums as its
# `ckpt-*.cksum` (OoO objects carry the predictors and issue carry).
# The report's `host:` line (wall time, MIPS) is dropped before the
# comparison. Regenerate the fixture (`--regenerate`) only for a
# deliberate change of the simulated model.
# Usage: tools/check_fabric_fixture.sh <varsim binary> <fixture dir>
#        <work dir> [--regenerate]
set -eu
v="$1" f="$2" w="$3" regen="${4:-}"
rm -rf "$w" && mkdir -p "$w"
[ "$regen" = --regenerate ] && mkdir -p "$f"

# check <name> <actual file>: compare with (or write) the fixture file.
check() {
    if [ "$regen" = --regenerate ]; then
        cp "$2" "$f/$1"
    else
        cmp "$2" "$f/$1"
    fi
}

# run <name> <varsim run flags...>
run() {
    name="$1"
    shift
    $v run --runs 2 --warmup 10 --seed 11 --stats "$w/$name.stats" \
        "$@" | grep -v '^host: ' >"$w/$name.out"
    check "$name.stats" "$w/$name.stats"
    check "$name.out" "$w/$name.out"
}

for p in snooping directory; do
    run "oltp4-$p" --workload oltp --cpus 4 --protocol "$p" --txns 40
    run "oltp4-sampled-$p" --workload oltp --cpus 4 --protocol "$p" \
        --txns 300 --sample stratified:100:15:25
    run "oltp16-ooo-$p" --workload oltp --cpus 16 --model ooo \
        --protocol "$p" --txns 40
done
run apache16-sampled-directory --workload apache --cpus 16 \
    --model ooo --protocol directory --txns 1000 \
    --sample stratified:500:16:64
run oltp16-ooo-sampled-snooping --workload oltp --cpus 16 \
    --model ooo --protocol snooping --txns 600 \
    --sample stratified:100:15:25

# ckpt <name> <ckpt create flags...>
ckpt() {
    name="$1"
    shift
    $v ckpt create --dir "$w/lib-$name" --workload oltp --cpus 4 \
        --checkpoints 2 --step 100 --vary l2-assoc=2,4 "$@" \
        >/dev/null 2>&1
    (cd "$w/lib-$name/objects" && cksum *.vckpt) >"$w/ckpt-$name.cksum"
    check "ckpt-$name.cksum" "$w/ckpt-$name.cksum"
}

for p in snooping directory; do
    ckpt "$p" --protocol "$p"
    ckpt "ooo-$p" --model ooo --protocol "$p"
done
