#!/bin/sh
# spine_compare.sh <base-ref> — the repository's one wall-clock perf gate:
# run the measurement spine (cmd/ssspine, every workload) on <base-ref> and
# on the working tree, on the default seed and on the held-out seed, and
# print `ssspine -compare` for each. The base is checked out into a git
# worktree under .ssspine/ (already ignored) and removed on exit; the four
# JSON files stay in .ssspine/compare/ for upload or for EXPERIMENTS.md.
# Both seeds always run, even when the first compare fails, so the evidence
# is complete; the script exits non-zero at the end if either compare read
# worse or found an exact-count mismatch.
#
# Each side runs its own cmd/ssspine, so this compares like with like only
# while the two trees agree on the harness — which is the rule anyway: a PR
# that claims a gain does not edit cmd/ssspine or BENCHMARK.json.
set -eu

BASE=${1:?usage: spine_compare.sh <base-ref>}
cd "$(git rev-parse --show-toplevel)"
ROOT=$PWD
OUT="$ROOT/.ssspine/compare"
TREE="$ROOT/.ssspine/base-tree"

mkdir -p "$OUT"
git worktree remove --force "$TREE" 2>/dev/null || true
git worktree prune
git worktree add --detach "$TREE" "$BASE" >/dev/null
trap 'git worktree remove --force "$TREE"' EXIT

verdicts=""
failed=0
for seed in 1 20030422; do
    echo "spine-compare: seed $seed, base $BASE"
    (cd "$TREE" && go run ./cmd/ssspine -seed "$seed" -out "$OUT/base-seed$seed.json")
    echo "spine-compare: seed $seed, working tree"
    go run ./cmd/ssspine -seed "$seed" -out "$OUT/change-seed$seed.json"
    status=0
    go run ./cmd/ssspine -compare "$OUT/base-seed$seed.json" "$OUT/change-seed$seed.json" || status=$?
    verdicts="$verdicts seed $seed: compare exit $status;"
    [ "$status" -eq 0 ] || failed=1
done
echo "spine-compare:$verdicts results in $OUT"
exit "$failed"
