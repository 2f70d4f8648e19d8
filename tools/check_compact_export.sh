#!/bin/sh
# Compaction and export through the CLI: a two-config campaign
# interrupted, compacted and resumed twice must report and export
# like the store rebuilt from its export, and keep one segment file.
# Usage: tools/check_compact_export.sh <varsim binary> <work dir>
set -eu
v="$1" s="$2/store.camp" t="$2/twin.camp"
rm -rf "$2" && mkdir -p "$t"
f="--dir $s --workload oltp --cpus 2 --runs 4 --warmup 5 --txns 20
   --vary dram=80,120 --seed 3 --host-threads 1"
{
    $v campaign run $f --interrupt-after 3
    $v campaign compact --dir "$s"
    $v campaign resume $f --interrupt-after 2
    $v campaign compact --dir "$s"
    $v campaign resume $f
} >"$2/steps.log"
$v campaign status --dir "$s" | grep -q \
    "compacted: 5 run(s) in 1 segment(s), 3 in the journal tail"
$v campaign export --dir "$s" --out "$t/manifest.jsonl"
$v campaign export --dir "$t" | cmp - "$t/manifest.jsonl"
$v campaign report --dir "$s" >"$2/store.report"
$v campaign report --dir "$t" | cmp - "$2/store.report"
[ "$(ls "$s/segments")" = seg-000002.vseg ]
