#!/usr/bin/env bash
# Input-validation gate for the hydra CLI's QuerySpec flags: every
# malformed value and every unsupported mode+method combination must exit
# 1 with a clean message (never a CHECK abort / non-1 status), and valid
# specs must run. Usage: validation_test.sh <path-to-hydra-binary>
set -u

bin="${1:?usage: validation_test.sh <hydra binary>}"
fails=0

# expect_err <description> <required stderr substring> <cli args...>
expect_err() {
  local desc="$1" want="$2"
  shift 2
  local out rc
  out=$("$bin" "$@" 2>&1)
  rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "FAIL ($desc): exit $rc, want 1 — output: $out"
    fails=1
  fi
  case "$out" in
    *"$want"*) ;;
    *)
      echo "FAIL ($desc): expected '$want' in output: $out"
      fails=1
      ;;
  esac
}

# expect_ok <description> <cli args...>
expect_ok() {
  local desc="$1"
  shift
  if ! "$bin" "$@" >/dev/null 2>&1; then
    echo "FAIL ($desc): expected success"
    fails=1
  fi
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
d="$tmp/d.bin"
"$bin" gen synth 400 64 3 "$d" >/dev/null || {
  echo "FAIL: could not generate the probe dataset"
  exit 1
}

# --epsilon: strict ParseDouble — reject NaN, inf, negatives, junk.
expect_err "epsilon nan" "--epsilon must be" \
  query "$d" DSTree 3 2 --mode epsilon --epsilon nan
expect_err "epsilon inf" "--epsilon must be" \
  query "$d" DSTree 3 2 --mode epsilon --epsilon inf
expect_err "epsilon overflow" "--epsilon must be" \
  query "$d" DSTree 3 2 --mode epsilon --epsilon 1e999
expect_err "epsilon negative" "--epsilon must be" \
  query "$d" DSTree 3 2 --mode epsilon --epsilon -0.5
expect_err "epsilon trailing junk" "--epsilon must be" \
  query "$d" DSTree 3 2 --mode epsilon --epsilon 0.5x
expect_err "epsilon hex float" "--epsilon must be" \
  query "$d" DSTree 3 2 --mode epsilon --epsilon 0x5
expect_err "epsilon empty-ish" "--epsilon must be" \
  query "$d" DSTree 3 2 --mode epsilon --epsilon +1
expect_err "epsilon missing value" "--epsilon needs a value" \
  query "$d" DSTree 3 2 --mode epsilon --epsilon

# --delta: strict ParseDouble plus the (0, 1] domain.
expect_err "delta zero" "--delta must lie in (0, 1]" \
  query "$d" DSTree 3 2 --mode delta-epsilon --epsilon 1 --delta 0
expect_err "delta above one" "--delta must lie in (0, 1]" \
  query "$d" DSTree 3 2 --mode delta-epsilon --epsilon 1 --delta 1.5
expect_err "delta nan" "--delta must lie in (0, 1]" \
  query "$d" DSTree 3 2 --mode delta-epsilon --epsilon 1 --delta nan
expect_err "delta junk" "--delta must lie in (0, 1]" \
  query "$d" DSTree 3 2 --mode delta-epsilon --epsilon 1 --delta 0.5e

# Flag consistency.
expect_err "unknown mode" "unknown mode" \
  query "$d" DSTree 3 2 --mode fast
expect_err "epsilon without mode" "--epsilon requires --mode" \
  query "$d" DSTree 3 2 --epsilon 0.5
expect_err "epsilon mode without value" "--mode epsilon requires --epsilon" \
  query "$d" DSTree 3 2 --mode epsilon
expect_err "delta-epsilon mode without delta" \
  "--mode delta-epsilon requires --delta" \
  query "$d" DSTree 3 2 --mode delta-epsilon --epsilon 1
expect_err "delta without mode" "--delta requires --mode delta-epsilon" \
  query "$d" DSTree 3 2 --mode epsilon --epsilon 1 --delta 0.5
expect_err "budget under ng" "budgets do not apply to --mode ng" \
  query "$d" DSTree 3 2 --mode ng --max-leaves 2
expect_err "max-leaves zero" "--max-leaves must be a positive integer" \
  query "$d" DSTree 3 2 --max-leaves 0
expect_err "max-raw junk" "--max-raw must be a positive integer" \
  query "$d" DSTree 3 2 --max-raw 10x
expect_err "leaf budget on a scan" "no leaf-visit budget unit" \
  query "$d" UCR-Suite 3 2 --max-leaves 5
expect_err "leaf budget on VA+file" "no leaf-visit budget unit" \
  query "$d" VA+file 3 2 --max-leaves 5
expect_err "leaf budget on ADS+" "no leaf-visit budget unit" \
  query "$d" ADS+ 3 2 --max-leaves 5
expect_err "spec flags on range" "only supported by 'query'" \
  range "$d" DSTree 5 2 --mode epsilon
expect_err "range radius inf" "radius must be a finite non-negative number" \
  range "$d" DSTree inf 2

# Unsupported mode+method combinations exit 1 with the traits-derived
# reason (scans are exact-only; M-tree has no ng descent).
expect_err "scan epsilon" "method supports modes: exact" \
  query "$d" UCR-Suite 3 2 --mode epsilon --epsilon 0.5
expect_err "scan ng" "UCR-Suite does not support --mode ng" \
  query "$d" UCR-Suite 3 2 --mode ng
expect_err "mtree ng" "method supports modes: exact, epsilon" \
  query "$d" M-tree 3 2 --mode ng
expect_err "mtree delta-epsilon" "M-tree does not support --mode delta-epsilon" \
  query "$d" M-tree 3 2 --mode delta-epsilon --epsilon 1 --delta 0.5

# The index lifecycle flags: --index only where a persisted index can be
# opened, `build` only for methods that can persist one, and every bad
# index file exits 1 cleanly (never a CHECK abort).
expect_err "index on compare" "--index is only supported" \
  compare "$d" 2 --index "$tmp/idx"
expect_err "index on gen" "--index is only supported" \
  gen synth 10 8 1 "$tmp/x.bin" --index "$tmp/idx"
expect_err "index without value" "--index needs a value" \
  query "$d" DSTree 3 2 --index
expect_err "build on a scan" "does not support a persisted index" \
  build "$d" MASS "$tmp/idx"
expect_err "query --index on a scan" "does not support --index" \
  query "$d" MASS 3 2 --index "$tmp/idx"
expect_err "missing index dir" "cannot open index file" \
  query "$d" DSTree 3 2 --index "$tmp/no-such-index"
expect_err "build unknown method" "unknown method" \
  build "$d" NotAMethod "$tmp/idx"
expect_ok "build then open" build "$d" DSTree "$tmp/idx"
expect_ok "query via index" query "$d" DSTree 3 2 --index "$tmp/idx"
expect_ok "range via index" range "$d" DSTree 5 2 --index "$tmp/idx"
expect_err "index of another method" "was built by 'DSTree'" \
  query "$d" SFA 3 2 --index "$tmp/idx"
"$bin" gen synth 200 64 4 "$tmp/other.bin" >/dev/null
expect_err "index fingerprint mismatch" "fingerprint mismatch" \
  query "$tmp/other.bin" DSTree 3 2 --index "$tmp/idx"

# --trace on a failed command: exit 1, and neither a trace file nor a
# "trace written" claim — a failed run has nothing to report.
for args in "query $tmp/no-such.bin DSTree 3 2" \
    "build $tmp/no-such.bin DSTree $tmp/tidx"; do
  out=$("$bin" $args --trace "$tmp/t.json" 2>&1)
  rc=$?
  if [ "$rc" -ne 1 ] || [ -e "$tmp/t.json" ] ||
      [[ "$out" == *"trace written"* ]]; then
    echo "FAIL (traced $args): exit $rc, trace left or announced: $out"
    fails=1
  fi
done

# The kernel-dispatch flag: unknown/unsupported sets and misplaced flags
# exit 1 listing the supported sets; ambient HYDRA_KERNELS misuse exits 1
# for every command (never the library's abort); valid forcings run.
expect_err "kernels unknown set" "unknown kernel set" \
  query "$d" DSTree 3 2 --kernels fast
expect_err "kernels missing value" "--kernels needs a value" \
  query "$d" DSTree 3 2 --kernels
expect_err "kernels on gen" "--kernels is only supported" \
  gen synth 10 8 1 "$tmp/y.bin" --kernels scalar
expect_err "kernels on methods" "--kernels is only supported" \
  methods --kernels scalar
bad_env_out=$(HYDRA_KERNELS=bogus "$bin" query "$d" DSTree 3 2 2>&1)
bad_env_rc=$?
if [ "$bad_env_rc" -ne 1 ]; then
  echo "FAIL (bad HYDRA_KERNELS): exit $bad_env_rc, want 1 — $bad_env_out"
  fails=1
fi
case "$bad_env_out" in
  *"HYDRA_KERNELS='bogus'"*) ;;
  *)
    echo "FAIL (bad HYDRA_KERNELS): expected clean message: $bad_env_out"
    fails=1
    ;;
esac
expect_ok "kernels scalar forced" query "$d" DSTree 3 2 --kernels scalar
expect_ok "kernels portable forced" query "$d" iSAX2+ 3 2 --kernels portable
expect_ok "kernels listing" kernels
expect_ok "kernels names listing" kernels names
# The flag wins over a valid environment setting.
if ! HYDRA_KERNELS=scalar "$bin" query "$d" DSTree 3 2 --kernels portable \
    >/dev/null 2>&1; then
  echo "FAIL (flag overrides env): expected success"
  fails=1
fi

# Valid specs run end to end.
expect_ok "exact default" query "$d" DSTree 3 2
expect_ok "explicit exact" query "$d" DSTree 3 2 --mode exact
expect_ok "epsilon" query "$d" DSTree 3 2 --mode epsilon --epsilon 0.5
expect_ok "delta-epsilon" \
  query "$d" SFA 3 2 --mode delta-epsilon --epsilon 1 --delta 0.25
expect_ok "ng" query "$d" iSAX2+ 3 2 --mode ng
expect_ok "budgeted exact" query "$d" DSTree 3 2 --max-raw 50 --max-leaves 2
expect_ok "mtree epsilon" query "$d" M-tree 3 2 --mode epsilon --epsilon 2

if [ "$fails" -ne 0 ]; then
  echo "cli_validation_test: FAILED"
  exit 1
fi
echo "cli_validation_test: all checks passed"
