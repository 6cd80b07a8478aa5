#!/usr/bin/env bash
# Bounded CLI-level chaos check over the durable build path:
#   1. kill after N journal records → resume → digest matches the reference
#      (the resume also runs --shards 4, so the per-shard partial digests
#      must reassemble the recovered kg-digest or the run fails);
#   2. kill before global durable I/O op N (half of them torn) → resume →
#      digest matches — this sweeps kills into checkpoint, prune, journal
#      truncation and compaction windows;
#   3. flip a byte inside the newest data segment → `recover --verify` still
#      exits 0 with the corruption attributed, and a resume falls back past
#      the quarantined checkpoint to the reference digest;
#   4. the CLI read commands (stats/search/cypher/export-stix/hunt/serve)
#      open both a durable store and a `build --out` store, and stats prints
#      the build's kg-digest; `build --out` refuses an existing store; stats
#      over a flipped byte exits 0 or 1 (never panics), and over a missing
#      path exits 1;
#   5. destroy the manifest magic → `recover` fails cleanly (exit 1, no panic);
#   6. an elevated-fault (--chaos) build completes.
# Run from anywhere; exits non-zero on the first divergence.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/debug/securitykg
SEED=5
ARTICLES=3
WORK=$(mktemp -d "${TMPDIR:-/tmp}/kg-chaos.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

cargo build -q -p securitykg-cli

digest_of() { grep '^kg-digest:' "$1" | awk '{print $2}'; }

echo "== uninterrupted reference run =="
"$BIN" build --journal "$WORK/ref" --articles "$ARTICLES" --days 0 --seed "$SEED" \
  >"$WORK/ref.out" 2>/dev/null
REF=$(digest_of "$WORK/ref.out")
echo "reference digest: $REF"

for K in 5 20 55; do
  echo "== kill after journal record $K, then resume =="
  DIR="$WORK/kill-$K"
  set +e
  "$BIN" build --journal "$DIR" --articles "$ARTICLES" --days 0 --seed "$SEED" \
    --crash-after-records "$K" >/dev/null 2>&1
  CODE=$?
  set -e
  if [ "$CODE" -ne 9 ]; then
    echo "FAIL: expected injected-crash exit 9, got $CODE" >&2
    exit 1
  fi
  # --shards 4 partitions the recovered graph and fails (nonzero exit)
  # unless the per-shard partial digests reassemble the printed kg-digest.
  "$BIN" build --resume "$DIR" --articles "$ARTICLES" --days 0 --seed "$SEED" \
    --shards 4 >"$WORK/resume-$K.out" 2>"$WORK/resume-$K.err"
  GOT=$(digest_of "$WORK/resume-$K.out")
  if [ "$GOT" != "$REF" ]; then
    echo "FAIL: kill at record $K recovered to $GOT, expected $REF" >&2
    exit 1
  fi
  if ! grep -q 'shard partition verified' "$WORK/resume-$K.err"; then
    echo "FAIL: resume did not verify the 4-shard partition" >&2
    cat "$WORK/resume-$K.err" >&2
    exit 1
  fi
  echo "recovered digest matches; 4-shard partition reassembles it"
done

echo "== uninterrupted reference run (checkpoint every cycle) =="
"$BIN" build --journal "$WORK/io-ref" --articles "$ARTICLES" --days 2 --seed "$SEED" \
  --snapshot-every 1 >"$WORK/io-ref.out" 2>/dev/null
IOREF=$(digest_of "$WORK/io-ref.out")
echo "reference digest: $IOREF"

for K in 3 40 90; do
  echo "== kill before durable I/O op $K, then resume =="
  DIR="$WORK/io-kill-$K"
  set +e
  "$BIN" build --journal "$DIR" --articles "$ARTICLES" --days 2 --seed "$SEED" \
    --snapshot-every 1 --kill-at-io "$K" >/dev/null 2>&1
  CODE=$?
  set -e
  if [ "$CODE" -ne 9 ]; then
    echo "FAIL: expected injected-crash exit 9, got $CODE" >&2
    exit 1
  fi
  # --journal, not --resume: a kill in the opening ops can die before the
  # journal file exists, and the resume must then redo from scratch.
  "$BIN" build --journal "$DIR" --articles "$ARTICLES" --days 2 --seed "$SEED" \
    --snapshot-every 1 >"$WORK/io-resume-$K.out" 2>/dev/null
  GOT=$(digest_of "$WORK/io-resume-$K.out")
  if [ "$GOT" != "$IOREF" ]; then
    echo "FAIL: I/O kill at op $K recovered to $GOT, expected $IOREF" >&2
    exit 1
  fi
  echo "recovered digest matches"
done

echo "== bit flip in the newest data segment =="
SRC="$WORK/flip-src"
"$BIN" build --journal "$SRC" --articles "$ARTICLES" --days 1 --seed "$SEED" \
  --snapshot-every 2 >"$WORK/flip-src.out" 2>/dev/null
FLIPREF=$(digest_of "$WORK/flip-src.out")

DIR="$WORK/flip-data"
cp -r "$SRC" "$DIR"
# The last byte of the newest data file belongs to the newest checkpoint's
# final frame: flipping it must quarantine that checkpoint, not crash.
DATA=$(ls "$DIR"/data-*.log | sort | tail -1)
SIZE=$(wc -c <"$DATA")
OLD=$(tail -c 1 "$DATA" | od -An -tu1 | tr -d ' ')
printf "$(printf '\\%03o' $((OLD ^ 255)))" |
  dd of="$DATA" bs=1 seek=$((SIZE - 1)) conv=notrunc 2>/dev/null
set +e
"$BIN" recover --dir "$DIR" --verify >"$WORK/flip-recover.out" 2>&1
CODE=$?
set -e
if [ "$CODE" -ne 0 ]; then
  echo "FAIL: recover --verify exited $CODE on a single flipped byte" >&2
  cat "$WORK/flip-recover.out" >&2
  exit 1
fi
if ! grep -q '^quarantined:' "$WORK/flip-recover.out"; then
  echo "FAIL: recover did not attribute the corrupt checkpoint" >&2
  cat "$WORK/flip-recover.out" >&2
  exit 1
fi
echo "corruption attributed: $(grep -c '^quarantined:' "$WORK/flip-recover.out") event(s)"
"$BIN" build --resume "$DIR" --articles "$ARTICLES" --days 1 --seed "$SEED" \
  --snapshot-every 2 >"$WORK/flip-resume.out" 2>/dev/null
GOT=$(digest_of "$WORK/flip-resume.out")
if [ "$GOT" != "$FLIPREF" ]; then
  echo "FAIL: resume past the flipped byte recovered to $GOT, expected $FLIPREF" >&2
  exit 1
fi
echo "resume fell back past the quarantined checkpoint; digest matches"

echo "== CLI reads over a durable store and a build --out store =="
OUT="$WORK/out-store"
"$BIN" build --out "$OUT" --articles "$ARTICLES" --seed "$SEED" >"$WORK/out-build.out" 2>/dev/null
OUTREF=$(digest_of "$WORK/out-build.out")
printf 'search wannacry\ncypher MATCH (n:Malware) RETURN count(*)\n' >"$WORK/queries.txt"
for STORE in "$WORK/ref=$REF" "$OUT=$OUTREF"; do
  DIR=${STORE%%=*}
  WANT=${STORE##*=}
  "$BIN" stats --kg "$DIR" >"$WORK/stats.out"
  GOT=$(digest_of "$WORK/stats.out")
  if [ -z "$WANT" ] || [ "$GOT" != "$WANT" ]; then
    echo "FAIL: stats --kg $DIR printed kg-digest '$GOT', the build printed '$WANT'" >&2
    exit 1
  fi
  "$BIN" search --kg "$DIR" wannacry >/dev/null
  "$BIN" cypher --kg "$DIR" 'MATCH (n:Malware) RETURN count(*)' >/dev/null 2>&1
  "$BIN" export-stix --kg "$DIR" --out "$WORK/bundle.json" 2>/dev/null
  "$BIN" hunt --kg "$DIR" --events 500 >/dev/null 2>&1
  "$BIN" serve --kg "$DIR" --queries "$WORK/queries.txt" --readers 1 --rounds 1 >/dev/null 2>&1
  echo "$DIR: stats/search/cypher/export-stix/hunt/serve ok, kg-digest $GOT"
done
# build --out never writes into an existing store.
BEFORE=$(cat "$OUT"/* | cksum)
if "$BIN" build --out "$OUT" --articles "$ARTICLES" --seed "$SEED" >/dev/null 2>&1; then
  echo "FAIL: build --out wrote into an existing store" >&2
  exit 1
fi
if [ "$(cat "$OUT"/* | cksum)" != "$BEFORE" ]; then
  echo "FAIL: a refused build --out changed the existing store" >&2
  exit 1
fi
# A flipped byte in the newest checkpoint: stats falls back (exit 0) or
# fails cleanly (exit 1); a panic exits 101.
DIR="$WORK/flip-read"
cp -r "$SRC" "$DIR"
DATA=$(ls "$DIR"/data-*.log | sort | tail -1)
SIZE=$(wc -c <"$DATA")
OLD=$(tail -c 1 "$DATA" | od -An -tu1 | tr -d ' ')
printf "$(printf '\\%03o' $((OLD ^ 255)))" |
  dd of="$DATA" bs=1 seek=$((SIZE - 1)) conv=notrunc 2>/dev/null
set +e
"$BIN" stats --kg "$DIR" >"$WORK/flip-stats.out" 2>&1
CODE=$?
set -e
if [ "$CODE" -ne 0 ] && [ "$CODE" -ne 1 ]; then
  echo "FAIL: stats --kg exited $CODE over a flipped byte" >&2
  cat "$WORK/flip-stats.out" >&2
  exit 1
fi
echo "stats --kg over a flipped byte exited $CODE"
set +e
"$BIN" stats --kg "$WORK/missing" >"$WORK/missing.out" 2>&1
CODE=$?
set -e
if [ "$CODE" -ne 1 ] || [ -e "$WORK/missing" ]; then
  echo "FAIL: stats --kg on a missing path exited $CODE (want 1, nothing created)" >&2
  exit 1
fi
echo "stats --kg on a missing path fails cleanly"

echo "== destroyed manifest magic fails cleanly =="
DIR="$WORK/flip-manifest"
cp -r "$SRC" "$DIR"
OLD=$(head -c 1 "$DIR/manifest.log" | od -An -tu1 | tr -d ' ')
printf "$(printf '\\%03o' $((OLD ^ 255)))" |
  dd of="$DIR/manifest.log" bs=1 conv=notrunc 2>/dev/null
set +e
"$BIN" recover --dir "$DIR" >"$WORK/manifest-recover.out" 2>&1
CODE=$?
set -e
if [ "$CODE" -eq 0 ]; then
  echo "FAIL: recover claimed success over an unusable manifest" >&2
  exit 1
fi
echo "recover refused the unusable manifest (exit $CODE)"

echo "== elevated-fault build completes =="
"$BIN" build --journal "$WORK/chaos" --articles "$ARTICLES" --days 2 --seed "$SEED" \
  --chaos >"$WORK/chaos.out" 2>&1
grep -q '^kg-digest:' "$WORK/chaos.out"

echo "chaos checks passed"
