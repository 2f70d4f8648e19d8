#!/bin/sh
# Cell-group and checkpoint counts are bounded: a campaign declaring
# more checkpoints than a store may hold is refused before its store
# is written, and status and report refuse a hand-written header
# declaring more groups at once instead of looping over them.
# Usage: tools/check_group_limit.sh <varsim binary> <work dir>
set -eu
v="$1" d="$2"
rm -rf "$d" && mkdir -p "$d/hand.camp"

refused() { # <needle> <command...>: must fail, saying <needle>
    needle="$1"
    shift
    if out=$("$@" 2>&1); then
        echo "accepted: $*"
        exit 1
    fi
    case "$out" in
      *"$needle"*) ;;
      *) echo "$out"; exit 1 ;;
    esac
}

refused "17592186044416 checkpoints exceed the limit of 65536" \
    "$v" campaign run --dir "$d/big.camp" --checkpoints 17592186044416 \
    --step 1 --runs 2 --txns 10 --cpus 2
[ ! -e "$d/big.camp" ]

printf '%s%s\n' \
    '{"type":"header","version":1,"fingerprint":"0000000000000001",' \
    '"groups":4294967296,"checkpoints":0,"workload":"OLTP","configs":["a"]}' \
    >"$d/hand.camp/manifest.jsonl"
for cmd in status report; do
    refused "header declares 4294967296 group(s)" \
        "$v" campaign "$cmd" --dir "$d/hand.camp"
done
