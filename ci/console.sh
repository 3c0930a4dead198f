#!/usr/bin/env bash
# Installed console script: the checks that need `pathrw` on PATH as an installed
# command, its exit statuses and its behaviour on deep input. Every other CLI
# expectation is a tier-1 test in tests/test_cli.py, which runs the CLI in-process.
#
# Run with `pathrw` on PATH (after `pip install -e .`, or with a shim; see README):
#   bash ci/console.sh
# Each check prints one line when it holds; the first that fails exits non-zero.
set -euo pipefail

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# exits STATUS COMMAND...: run COMMAND, stdout to $tmp/out and stderr to $tmp/err;
# fail unless it exits STATUS.
exits() {
  local want=$1 status=0
  shift
  "$@" > "$tmp/out" 2> "$tmp/err" || status=$?
  if [ "$status" -ne "$want" ]; then
    cat "$tmp/err" >&2
    echo "$*: exit status $status, not $want" >&2
    exit 1
  fi
}

# pin WHAT GOT WANT: fail unless GOT is WANT.
pin() {
  if [ "$2" != "$3" ]; then
    printf '%s: got %s\n%s: want %s\n' "$1" "$2" "$1" "$3" >&2
    exit 1
  fi
  echo "ok: $1"
}

script="$tmp/smoke.pth"
printf '%s\n' 'type A' 'elem a b c : A' 'step r : a = b' 'step s : a = c' \
  'path p := tau(r, tau(sigma(r), s))' 'path w := sigma(rho(a))' > "$script"
stray="$tmp/stray.pth"
printf '%s\n' 'type A' 'elem a b : A' 'step r : a = b' 'path p := tau(r, @r)' > "$stray"
nest="$tmp/nest.pth"
printf -v open 'sigma(tau(%.0s' {1..10000}
printf -v close ', v))%.0s' {1..10000}
printf '%s\n' 'type A' 'elem a : A' 'step u : a = a' 'step v : a = a' "path p := ${open}u${close}" > "$nest"
# Its word is v^-5000 u v^5000: 10,001 letters.
printf -v inverses 'v^-1 %.0s' {1..5000}
printf -v forwards ' v%.0s' {1..5000}

exits 0 pathrw explain tt
echo "ok: explain tt exits 0"
exits 1 pathrw equal "$script" p w
echo "ok: equal p w exits 1"
exits 2 pathrw normalize "$stray" p
pin "stray character, stderr" "$(cat "$tmp/err")" "error: 4:18: unexpected character '@'"
exits 0 timeout 20 pathrw laws "$script" --level 2000 --samples 1
pin "laws at level 2000, last line" "$(tail -n 1 "$tmp/out")" "laws: level 2000, seed 0, 5 checks, 0 failures"
exits 0 timeout 20 pathrw oracle "$nest" p
pin "oracle on a 10^4-deep nest, endpoints" "$(tail -n 2 "$tmp/out")" $'source: a\ntarget: a'
pin "oracle on a 10^4-deep nest, word" "$(head -n 1 "$tmp/out")" "word:   ${inverses}u${forwards}"
