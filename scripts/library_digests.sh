#!/usr/bin/env bash
# Pins the scenario library's results: `scenarios/digests.txt` holds one
# `<file> <digest>` line per library scenario, the digest being
# `tailwise fleet manifest --digest` of `tailwise fleet run <file>
# --threads 2`. This script recomputes every digest and fails on any
# difference, printing `name old → new` for each; with `--pin` it
# rewrites the file instead.
#
#   scripts/library_digests.sh          # check (about 150 s on 2 vCPU)
#   scripts/library_digests.sh --pin    # re-pin after a deliberate move
#
# Every `scenarios/*.toml` is covered except `stress_200k.toml` (200k
# users). `corpus_replay.toml` reads `dir = "corpus"` against the
# working directory, so it runs from the scratch directory, over a
# 64-user corpus that `fleet export` and `fleet synth` write there
# first.
set -euo pipefail

cd "$(dirname "$0")/.."
pin=false
case "${1:-}" in
    "") ;;
    --pin) pin=true ;;
    *) echo "usage: $0 [--pin]" >&2; exit 2 ;;
esac

pins=scenarios/digests.txt
cargo build --release --quiet -p tailwise
tailwise=$PWD/target/release/tailwise
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

"$tailwise" fleet export "$scratch/base.toml" --users 64 > /dev/null
"$tailwise" fleet synth "$scratch/base.toml" --out "$scratch/corpus" --threads 2 > /dev/null
: > "$scratch/digests.txt"
for path in "$PWD"/scenarios/*.toml; do
    file=$(basename "$path")
    case "$file" in stress_200k.toml) continue ;; esac
    (cd "$scratch" && "$tailwise" fleet run "$path" --threads 2 --quiet --metrics run.toml > /dev/null)
    echo "$file $("$tailwise" fleet manifest --digest "$scratch/run.toml")" >> "$scratch/digests.txt"
done

if $pin; then
    cp "$scratch/digests.txt" "$pins"
    echo "pinned $(wc -l < "$pins") digests in $pins"
    exit 0
fi

# Every scenario pinned or computed, with the two digests side by side
# (`-` where one side has none).
moved=0
while read -r file old new; do
    if [ "$old" != "$new" ]; then
        [ "$old" = - ] && old=unpinned
        [ "$new" = - ] && new=gone
        echo "${file%.toml} $old → $new"
        moved=1
    fi
done < <(join -a1 -a2 -e - -o 0,1.2,2.2 <(sort "$pins") <(sort "$scratch/digests.txt"))
if [ "$moved" = 1 ]; then
    echo "scenario digests differ from $pins (re-pin with $0 --pin if the move is meant)" >&2
    exit 1
fi
echo "all $(wc -l < "$pins") scenario digests match $pins"
