#!/bin/sh
# The checkpoint library's lifecycle through the CLI. `ckpt create`
# fills a 2-config x 2-checkpoint library; two campaigns in fresh
# stores restore all of it, warm nothing and report alike; an index
# left by an older build (a stale entry, a duplicate, a torn last
# line) changes nothing `ls` or `verify` print; and `gc` under a byte
# budget one below the total evicts exactly the oldest object and
# deletes that index. Last, the lock across processes: while `varsim
# serve` holds <root>/ckpts open, `ckpt gc` on it refuses ("in use"),
# and after the daemon drains and exits the same gc runs.
# Usage: tools/check_ckpt_library.sh <varsim binary> <work dir>
set -eu
v="$1" d="$2" lib="$2/lib"
rm -rf "$d" && mkdir -p "$d"
f="--workload oltp --cpus 2 --warmup 5 --txns 20 --runs 2 --seed 3
   --checkpoints 2 --step 20 --vary l2-assoc=2,4 --host-threads 1"

$v ckpt create --dir "$lib" $f >"$d/create.log"
$v ckpt ls --dir "$lib" >"$d/ls.before"
$v ckpt verify --dir "$lib" >"$d/verify.before"
# Every object is in the format this build writes.
fmt=$(sed -n 's/.*this build writes format \([0-9]*\) .*/\1/p' \
    "$d/verify.before")
[ -n "$fmt" ]
[ "$(grep -c "byte(s)  format $fmt\$" "$d/ls.before")" = 4 ]

for c in a b; do
    $v campaign run --dir "$d/$c.camp" --ckpt-dir "$lib" $f >"$d/$c.log"
    $v campaign status --dir "$d/$c.camp" |
        grep -q "; last run restored 4, warmed 0$"
    $v campaign report --dir "$d/$c.camp" >"$d/$c.report"
done
cmp "$d/a.report" "$d/b.report"

# An older build's index: each object once, then a duplicate, an
# entry whose object does not exist, and an unterminated line.
awk '/byte\(s\)/ {
        printf "{\"type\":\"ckpt\",\"digest\":\"%s\",\"bytes\":%s,", $1, $6
        printf "\"position\":%s,\"seed\":%s,\"key\":\"k\"}\n", $3, $5
     }' "$d/ls.before" >"$lib/index.jsonl"
head -n 1 "$lib/index.jsonl" >>"$lib/index.jsonl"
printf '%s\n' '{"type":"ckpt","digest":"00000000deadbeef","bytes":9,"position":1,"seed":1,"key":"k"}' \
    >>"$lib/index.jsonl"
printf '%s' '{"type":"ckpt","digest":"0000' >>"$lib/index.jsonl"
$v ckpt ls --dir "$lib" | cmp - "$d/ls.before"
$v ckpt verify --dir "$lib" | cmp - "$d/verify.before"

# Back-date the newest object: a budget one byte short of the total
# evicts it, the oldest now, and nothing else.
aged=$(awk '/byte\(s\)/ { d = $1 } END { print d }' "$d/ls.before")
total=$(awk '/byte\(s\)/ { s += $6 } END { print s }' "$d/ls.before")
touch -d 2020-01-01 "$lib/objects/$aged.vckpt"
$v ckpt gc --dir "$lib" --max-bytes $((total - 1)) >"$d/gc.log"
grep -q "evicted 1 entry;" "$d/gc.log"
[ ! -e "$lib/objects/$aged.vckpt" ]
[ ! -e "$lib/index.jsonl" ]
$v ckpt verify --dir "$lib" >"$d/verify.after"
$v ckpt ls --dir "$lib" >"$d/ls.after"
grep -q "^3 checkpoint(s) in " "$d/ls.after"

# gc refuses while a daemon has the library open. The trap drains,
# then kills, so no exit path leaves the daemon running.
r="$d/serve"
mkdir -p "$r"
$v serve --root "$r" --workers 1 >"$d/serve.log" 2>&1 &
daemon=$!
stop_daemon() {
    $v client drain --root "$r" >/dev/null 2>&1 || true
    kill "$daemon" 2>/dev/null || true
    wait "$daemon" 2>/dev/null || true
}
trap stop_daemon EXIT
trap 'exit 1' INT TERM
up=0
for _ in $(seq 1 100); do
    if $v client ping --root "$r" >/dev/null 2>&1; then
        up=1
        break
    fi
    sleep 0.1
done
[ "$up" = 1 ]
if $v ckpt gc --dir "$r/ckpts" >"$d/gc.busy" 2>&1; then
    echo "ckpt gc ran while the daemon held the library" >&2
    exit 1
fi
grep -q "in use" "$d/gc.busy"
$v client drain --root "$r" >/dev/null
wait "$daemon"
trap - EXIT
$v ckpt gc --dir "$r/ckpts" >"$d/gc.idle"
grep -q "^removed 0 temp file(s)" "$d/gc.idle"
