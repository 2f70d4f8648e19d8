#!/bin/sh
# Replay tolerance through the CLI: a hand-edited manifest with a
# duplicated run and its companion, an extra and an orphan metrics
# record, an unknown record type, a malformed line in mid-file, tabs,
# an escaped config name, quoted, `+`-prefixed and out-of-range
# metric values and a torn final line must read exactly as the
# expected outputs beside it say, and a read leaves it untouched.
# Usage: tools/check_replay_fixture.sh <varsim binary> <fixture dir>
#        <work dir>
set -eu
v="$1" f="$2" s="$3/store.camp"
rm -rf "$3" && mkdir -p "$s"
cp "$f/manifest.jsonl" "$s/"
$v campaign status --dir "$s" | cmp - "$f/status.out"
$v campaign report --dir "$s" | cmp - "$f/report.out"
$v campaign report --dir "$s" --metric list | cmp - "$f/metric-list.out"
for m in system.mem.bus.l2_misses quoted plus huge; do
    $v campaign report --dir "$s" --metric "$m" |
        cmp - "$f/metric-$m.out"
done
$v campaign export --dir "$s" | cmp - "$f/export.out"
cmp "$s/manifest.jsonl" "$f/manifest.jsonl"
