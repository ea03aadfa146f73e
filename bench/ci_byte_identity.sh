#!/usr/bin/env bash
# Byte-identity gate over one MALLOC_REPRO_* knob — in practice JOBS,
# the width of the domain pool that runs independent simulations.
#
#   ci_byte_identity.sh VAR "V1 V2 ..." PLAIN_REF CHECK_REF FAULTS_REF -- ARGS...
#
# Runs `mallocbench ARGS...` once per value V with MALLOC_REPRO_VAR=V
# and diffs the output against PLAIN_REF: the determinism invariants
# say the pool width may change wall clock, never output. When
# FAULTS_REF is not "-", each value is also run under
# `--faults oom-pressure:7` and diffed against it (an injected-fault
# schedule is part of the reproducible artifact). When CHECK_REF is
# not "-", the last value is additionally run under `--check` and
# diffed against it (one checked run is enough — the checker itself is
# width-independent; the plain sweep already pinned the width).
#
# The workflow calls this once per reference output.
set -euo pipefail

if [ $# -lt 7 ]; then
  echo "usage: $0 VAR \"V1 V2 ...\" PLAIN_REF CHECK_REF|- FAULTS_REF|- -- ARGS..." >&2
  exit 2
fi

var=$1
values=$2
plain_ref=$3
check_ref=$4
faults_ref=$5
shift 5
if [ "$1" != "--" ]; then
  echo "$0: expected -- before the mallocbench arguments" >&2
  exit 2
fi
shift

run() { # run <value> <output> [extra mallocbench flags...]
  local value=$1 out=$2
  shift 2
  env "MALLOC_REPRO_${var}=${value}" \
    opam exec -- dune exec bin/mallocbench.exe -- "$@" > "$out"
}

out=$(mktemp)
trap 'rm -f "$out"' EXIT

last=""
for v in $values; do
  last=$v
  echo "== ${var}=${v}: plain vs ${plain_ref}"
  run "$v" "$out" "$@"
  diff "$plain_ref" "$out"
  if [ "$faults_ref" != "-" ]; then
    echo "== ${var}=${v}: --faults oom-pressure:7 vs ${faults_ref}"
    run "$v" "$out" "$@" --faults oom-pressure:7
    diff "$faults_ref" "$out"
  fi
done

if [ "$check_ref" != "-" ]; then
  echo "== ${var}=${last}: --check vs ${check_ref}"
  run "$last" "$out" "$@" --check
  diff "$check_ref" "$out"
fi
