#!/usr/bin/env bash
# Chaos conformance matrix (docs/resilience.md).
#
# Sweeps every chaos fault site against every long-running entry point
# and asserts the engine-wide contract: an injected fault must end as
#
#   * bit-identical recovery (retried transients, tolerated checkpoint
#     writes, dropped cache publishes leave the output byte-equal to
#     the fault-free run), or
#   * an annotated degradation (a "fallback"-tagged record, a
#     "dropped samples/trials" section) at exit 0, or
#   * a structured, classified error/shed/gap record with exit 3, or
#   * a clean partial-results drain (exit 4 deadline, exit 143 signal)
#
# — never silent corruption, never a lost record, never a crash.
#
# Usage: chaos_matrix.sh CLI MODEL [OUT_TSV]
#   CLI      path to the rascal_cli binary
#   MODEL    a small .rasc model (examples/models/hadb_pair.rasc)
#   OUT_TSV  verdict table destination (default: stdout)
#
# Environment: RASCAL_THREADS is honored (CI runs the matrix at 1 and
# at 4); every other knob is pinned so the sweep is reproducible.
set -u

cli=${1:?usage: chaos_matrix.sh CLI MODEL [OUT_TSV]}
model=${2:?usage: chaos_matrix.sh CLI MODEL [OUT_TSV]}
out_tsv=${3:-/dev/stdout}

d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT

SITES="worker-throw sigterm solver-nonconverge solver-fault \
sink-write-fail checkpoint-write-fail cache-publish-fail worker-abandon"
ENTRIES="batch serve uncertainty campaign"
N_REQUESTS=8

# Request stream for batch/serve: gmres so the iterative chaos sites
# have a solver to bite, a few distinct parameter points so the solve
# cache participates.
: > "$d/req.jsonl"
for i in $(seq 1 $N_REQUESTS); do
  printf '{"model": "%s", "set": {"FIR": 0.000%d}, "method": "gmres", "id": "r%d"}\n' \
    "$model" "$((i % 4 + 1))" "$i" >> "$d/req.jsonl"
done

ck_serial=0

# run_entry ENTRY OUT ERR [CHAOS_SPEC] -> exit status
run_entry() {
  local entry=$1 out=$2 err=$3 spec=${4:-} status=0
  ck_serial=$((ck_serial + 1))
  local ck="$d/ck_${ck_serial}.json"
  case $entry in
    batch)
      env ${spec:+RASCAL_CHAOS="$spec"} RASCAL_CHECKPOINT_EVERY=1 \
        "$cli" batch "$d/req.jsonl" --out "$out" --checkpoint "$ck" \
        >/dev/null 2>"$err" || status=$?
      ;;
    serve)
      env ${spec:+RASCAL_CHAOS="$spec"} RASCAL_CHECKPOINT_EVERY=1 \
        "$cli" serve --out "$out" --checkpoint "$ck" \
        < "$d/req.jsonl" >/dev/null 2>"$err" || status=$?
      ;;
    uncertainty)
      env ${spec:+RASCAL_CHAOS="$spec"} RASCAL_CHECKPOINT_EVERY=1 \
        "$cli" uncertainty "$model" --range FIR=0:0.002 --samples 16 \
        --seed 3 --method gmres --checkpoint "$ck" \
        >"$out" 2>"$err" || status=$?
      ;;
    campaign)
      env ${spec:+RASCAL_CHAOS="$spec"} RASCAL_CHECKPOINT_EVERY=1 \
        "$cli" campaign --trials 64 --seed 7 --checkpoint "$ck" \
        >"$out" 2>"$err" || status=$?
      ;;
  esac
  return $status
}

# Mid-run worker index for the index-keyed sites, per entry point.
site_key() {
  local entry=$1 site=$2
  case $site in
    sigterm|worker-throw|worker-abandon)
      case $entry in
        batch|serve) echo 4 ;;
        uncertainty) echo 8 ;;
        campaign)    echo 20 ;;
      esac
      ;;
    *) echo 0 ;;
  esac
}

printf 'entry\tsite\texit\tverdict\tevidence\n' > "$out_tsv"
failures=0

for entry in $ENTRIES; do
  base_out="$d/${entry}_base.out"
  base_err="$d/${entry}_base.err"
  base_status=0
  run_entry "$entry" "$base_out" "$base_err" || base_status=$?
  if [ "$base_status" -ne 0 ]; then
    printf '%s\t(baseline)\t%d\tFAIL\tbaseline run failed\n' \
      "$entry" "$base_status" >> "$out_tsv"
    failures=$((failures + 1))
    continue
  fi

  for site in $SITES; do
    key=$(site_key "$entry" "$site")
    c_out="$d/${entry}_${site}.out"
    c_err="$d/${entry}_${site}.err"
    status=0
    run_entry "$entry" "$c_out" "$c_err" "${site}@${key}" || status=$?

    verdict=FAIL
    evidence="exit $status, no recognized outcome"
    case $status in
      0)
        if cmp -s "$base_out" "$c_out"; then
          verdict=PASS
          evidence="bit-identical recovery"
        elif grep -qE '"fallback":' "$c_out"; then
          verdict=PASS
          evidence="annotated fallback record"
        elif grep -qE 'dropped (samples|trials)' "$c_out"; then
          verdict=PASS
          evidence="structured drop section"
        fi
        ;;
      3)
        if grep -qE '"status":"(error|shed)"' "$c_out" 2>/dev/null \
            || grep -qE 'gap record|never completed|could not be written' \
               "$c_err" 2>/dev/null; then
          verdict=PASS
          evidence="classified error/shed/gap records"
        fi
        ;;
      4)
        if grep -qE 'PARTIAL RESULTS|did not converge' "$c_out" "$c_err" \
            2>/dev/null; then
          verdict=PASS
          evidence="cooperative drain (deadline/nonconvergence)"
        fi
        ;;
      143)
        if grep -q 'PARTIAL RESULTS' "$c_out" "$c_err" 2>/dev/null; then
          verdict=PASS
          evidence="signal drain with partial-results marker"
        fi
        ;;
    esac

    # Exit-0 batch/serve runs must account for every request: a short
    # stream at a success exit code is exactly the silent loss the
    # matrix exists to catch.
    if [ "$verdict" = PASS ] && [ "$status" -eq 0 ]; then
      case $entry in
        batch|serve)
          lines=$(wc -l < "$c_out")
          if [ "$lines" -ne "$N_REQUESTS" ]; then
            verdict=FAIL
            evidence="exit 0 but $lines/$N_REQUESTS records"
          fi
          ;;
      esac
    fi

    [ "$verdict" = FAIL ] && failures=$((failures + 1))
    printf '%s\t%s\t%d\t%s\t%s\n' \
      "$entry" "$site" "$status" "$verdict" "$evidence" >> "$out_tsv"
  done
done

if [ "$failures" -ne 0 ]; then
  echo "chaos matrix: $failures FAILING cell(s)" >&2
  [ "$out_tsv" != /dev/stdout ] && cat "$out_tsv" >&2
  exit 1
fi
echo "chaos matrix: all cells conform" >&2
