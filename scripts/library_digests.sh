#!/usr/bin/env bash
# Pins the scenario library's and the reproduction's results.
# `scenarios/digests.txt` holds one `<file> <digest>` line per library
# scenario, the digest being `tailwise fleet manifest --digest` of
# `tailwise fleet run <file> --threads 2`. `scenarios/repro_digests.txt`
# holds one `<stem> <sha256>` line per CSV that a full `repro` run
# writes (all 30). This script recomputes both and fails on any
# difference, printing `name old → new` for each; with `--pin` it
# rewrites both files instead.
#
#   scripts/library_digests.sh          # check (under 2 min on 2 vCPU)
#   scripts/library_digests.sh --pin    # re-pin after a deliberate move
#
# Every `scenarios/*.toml` is covered except `stress_200k.toml` (200k
# users). `corpus_replay.toml` reads `dir = "corpus"` against the
# working directory, so it runs from the scratch directory, over a
# 64-user corpus that `fleet export` and `fleet synth` write there
# first. `repro` writes its CSVs into the scratch directory too.
set -euo pipefail

cd "$(dirname "$0")/.."
pin=false
case "${1:-}" in
    "") ;;
    --pin) pin=true ;;
    *) echo "usage: $0 [--pin]" >&2; exit 2 ;;
esac

pins=scenarios/digests.txt
repro_pins=scenarios/repro_digests.txt
cargo build --release --quiet -p tailwise -p tailwise-bench --bin tailwise --bin repro
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

TAILWISE_RESULTS="$scratch/repro" "$PWD/target/release/repro" > /dev/null
for path in "$scratch"/repro/*.csv; do
    stem=$(basename "$path" .csv)
    echo "$stem $(sha256sum "$path" | cut -d' ' -f1)"
done > "$scratch/repro_digests.txt"

if $pin; then
    cp "$scratch/digests.txt" "$pins"
    cp "$scratch/repro_digests.txt" "$repro_pins"
    echo "pinned $(wc -l < "$pins") digests in $pins and $(wc -l < "$repro_pins") in $repro_pins"
    exit 0
fi

# Every name pinned or computed, with the two digests side by side
# (`-` where one side has none); prints `name old → new` per move.
compare() {
    local moved=0 name old new
    while read -r name old new; do
        if [ "$old" != "$new" ]; then
            [ "$old" = - ] && old=unpinned
            [ "$new" = - ] && new=gone
            echo "${name%.toml} $old → $new"
            moved=1
        fi
    done < <(join -a1 -a2 -e - -o 0,1.2,2.2 <(sort "$1") <(sort "$2"))
    return $moved
}
moved=0
compare "$pins" "$scratch/digests.txt" || {
    echo "scenario digests differ from $pins" >&2
    moved=1
}
compare "$repro_pins" "$scratch/repro_digests.txt" || {
    echo "repro CSV digests differ from $repro_pins" >&2
    moved=1
}
if [ "$moved" = 1 ]; then
    echo "re-pin with $0 --pin if the move is meant" >&2
    exit 1
fi
echo "all $(wc -l < "$pins") scenario digests match $pins"
echo "all $(wc -l < "$repro_pins") repro CSV digests match $repro_pins"
