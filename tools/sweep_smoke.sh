#!/bin/sh
# sweep_smoke.sh THISTLE_CLI
#
# End-to-end smoke of the sharded/resumable sweep CLI (DESIGN §12),
# capped small enough for `dune runtest`:
#   1. an unsharded run is the reference report;
#   2. --shard 1/2 and --shard 2/2 runs journal their halves, and
#      `thistle merge` over the two journals must reproduce the
#      reference byte-for-byte;
#   3. resuming from the merged journal (no shard) must also reproduce
#      it byte-for-byte without re-solving;
#   4. merge refuses journals with conflicting fingerprints;
#   5. journal compaction is a no-op on empty and compacted journals;
#   6. the report is byte-identical at --jobs 1 and --jobs 4, with
#      presolve on (default) and off.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 path/to/thistle_cli.exe" >&2
    exit 2
fi

cli=$1
case $cli in */*) ;; *) cli=./$cli ;; esac
layer=resnet-2
opts="--layer $layer --max-choices 4 --jobs 2"

dir=$(mktemp -d "${TMPDIR:-/tmp}/thistle_sweep.XXXXXX")
trap 'rm -rf "$dir"' EXIT

"$cli" optimize $opts > "$dir/full.txt"

"$cli" optimize $opts --shard 1/2 --journal "$dir/s1.jsonl" > /dev/null
"$cli" optimize $opts --shard 2/2 --journal "$dir/s2.jsonl" > /dev/null

"$cli" merge $opts --journal "$dir/merged.jsonl" \
    "$dir/s1.jsonl" "$dir/s2.jsonl" > "$dir/merged.txt"
if ! cmp -s "$dir/full.txt" "$dir/merged.txt"; then
    echo "sweep smoke: merged shard report differs from unsharded run" >&2
    diff "$dir/full.txt" "$dir/merged.txt" >&2 || true
    exit 1
fi

"$cli" optimize $opts --journal "$dir/merged.jsonl" --resume > "$dir/resumed.txt"
if ! cmp -s "$dir/full.txt" "$dir/resumed.txt"; then
    echo "sweep smoke: resumed report differs from unsharded run" >&2
    diff "$dir/full.txt" "$dir/resumed.txt" >&2 || true
    exit 1
fi

# 4. `thistle merge` must refuse journals whose fingerprints conflict:
#    the same shard journaled under a different solver config (cold
#    starts instead of warm starts) carries the same pair indices with
#    different fingerprints, and merging it with the warm-started
#    journal would mix incompatible solves.
"$cli" optimize $opts --shard 1/2 --no-warm-start \
    --journal "$dir/s1-cold.jsonl" > /dev/null
if "$cli" merge $opts --journal "$dir/conflict.jsonl" \
    "$dir/s1.jsonl" "$dir/s1-cold.jsonl" > /dev/null 2> "$dir/conflict.err"; then
    echo "sweep smoke: merge accepted conflicting fingerprints" >&2
    exit 1
fi
if ! grep -qi "fingerprint" "$dir/conflict.err"; then
    echo "sweep smoke: merge refusal does not name the fingerprint conflict:" >&2
    cat "$dir/conflict.err" >&2
    exit 1
fi

# 5. `thistle journal compact` on an empty journal succeeds and leaves
#    it empty; compacting an already-compacted journal is a no-op.
: > "$dir/empty.jsonl"
"$cli" journal compact "$dir/empty.jsonl" > /dev/null
if [ -s "$dir/empty.jsonl" ]; then
    echo "sweep smoke: compacting an empty journal produced bytes" >&2
    exit 1
fi
"$cli" journal compact "$dir/merged.jsonl" > /dev/null
cp "$dir/merged.jsonl" "$dir/merged.once.jsonl"
"$cli" journal compact "$dir/merged.jsonl" > /dev/null
if ! cmp -s "$dir/merged.once.jsonl" "$dir/merged.jsonl"; then
    echo "sweep smoke: journal compact is not idempotent" >&2
    exit 1
fi

# 6. The worker count never changes a report, with presolve pruning
#    (default) or without it.
for presolve in prune off; do
    "$cli" optimize --layer $layer --max-choices 8 --presolve $presolve \
        --jobs 1 > "$dir/j1-$presolve.txt"
    "$cli" optimize --layer $layer --max-choices 8 --presolve $presolve \
        --jobs 4 > "$dir/j4-$presolve.txt"
    if ! cmp -s "$dir/j1-$presolve.txt" "$dir/j4-$presolve.txt"; then
        echo "sweep smoke: report depends on --jobs (presolve $presolve)" >&2
        diff "$dir/j1-$presolve.txt" "$dir/j4-$presolve.txt" >&2 || true
        exit 1
    fi
done

echo "sweep smoke: shard+merge, resume, merge-refusal, compact and jobs OK on $layer"
