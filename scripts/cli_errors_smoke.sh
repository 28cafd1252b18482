#!/usr/bin/env sh
# Smoke-test the CLI error boundary: every failure class must exit with
# its documented code and print a one-line "sjos: <class>: <message>" on
# stderr -- never a backtrace.
#
# Usage:  scripts/cli_errors_smoke.sh [path/to/sjos.exe]
# With no argument the script runs the binary through `dune exec`
# (prefix with `opam exec --` in CI if needed via $SJOS).

set -u

SJOS="${1:-${SJOS:-dune exec bin/sjos.exe --}}"
XML="${TMPDIR:-/tmp}/sjos_smoke_pers.xml"
fails=0

say() { printf '%s\n' "$*"; }

expect_exit() {
  want=$1
  label=$2
  shift 2
  out=$("$@" 2>&1 >/dev/null)
  got=$?
  if [ "$got" -ne "$want" ]; then
    say "FAIL $label: exit $got, wanted $want"
    say "     stderr: $out"
    fails=$((fails + 1))
  elif [ "$want" -ne 0 ] && ! printf '%s' "$out" | grep -q '^sjos: '; then
    say "FAIL $label: exit $want but stderr is not a one-line sjos message:"
    say "     $out"
    fails=$((fails + 1))
  else
    say "ok   $label (exit $got)"
  fi
}

# shellcheck disable=SC2086  # $SJOS is intentionally word-split
run_sjos() { $SJOS "$@"; }

$SJOS gen pers -n 2000 -o "$XML" 2>/dev/null || {
  say "FAIL could not generate $XML"
  exit 1
}

# success path
expect_exit 0 "healthy query" \
  run_sjos query "manager(//employee(/name))" "$XML"

# parse_error = 2: bad pattern syntax, then malformed XML
expect_exit 2 "pattern parse error" \
  run_sjos query "manager(||employee)" "$XML"
BAD="${TMPDIR:-/tmp}/sjos_smoke_bad.xml"
printf '<a><b></a>' > "$BAD"
expect_exit 2 "malformed xml" \
  run_sjos query "manager(//name)" "$BAD"

# invalid_request = 3: a client pointed at a socket nobody listens on
expect_exit 3 "client without a server" \
  run_sjos client health --socket "${TMPDIR:-/tmp}/sjos_smoke_absent_$$.sock"

# budget_exhausted = 5: tuple ceiling fires during execution
expect_exit 5 "tuple budget exhausted" \
  run_sjos query "manager(//employee(/name))" "$XML" --max-tuples 1
expect_exit 5 "tuple budget exhausted (analyze)" \
  run_sjos analyze "manager(//employee(/name))" "$XML" --max-tuples 1
# the ceiling is exact: 3 managers and 8 names scan within a ceiling of
# 8, and the 11-tuple join stops at its 9th tuple
TINY="${TMPDIR:-/tmp}/sjos_smoke_tiny.xml"
printf '%s' '<company><manager><name>ann</name><employee><name>bob</name>'\
'</employee><manager><name>cid</name><department><name>sales</name>'\
'</department><employee><name>dan</name></employee></manager><department>'\
'<name>ops</name></department></manager><manager><name>eve</name>'\
'<employee><name>fay</name></employee></manager></company>' > "$TINY"
expect_exit 5 "tuple budget exhausted at tuple 9" \
  run_sjos query "manager(//name)" "$TINY" --max-tuples 8
exact=$(run_sjos query "manager(//name)" "$TINY" --max-tuples 8 2>&1 >/dev/null)
if printf '%s' "$exact" | grep -q '9 tuples produced, limit 8'; then
  say "ok   tuple ceiling reports the exact count"
else
  say "FAIL tuple ceiling count: stderr: $exact"
  fails=$((fails + 1))
fi

# degradation is NOT an error: an over-budget exact search falls back to
# DPAP-EB, exits 0 and says so on stderr
note=$(run_sjos query "manager(//employee(/name))" "$XML" \
  --no-cache --max-expanded 1 2>&1 >/dev/null)
rc=$?
if [ "$rc" -eq 0 ] && printf '%s' "$note" | grep -q 'DPAP-EB'; then
  say "ok   budgeted search degrades with a note (exit 0)"
else
  say "FAIL degradation: exit $rc, stderr: $note"
  fails=$((fails + 1))
fi

# the complete class-to-exit-code table via the selftest boundary: every
# class must map to its documented code even when no organic failing
# query exists for it in this script (6 is unused)
for pair in parse_error:2 invalid_request:3 invalid_plan:4 \
  budget_exhausted:5 corrupt_input:7 internal:8 overloaded:9; do
  cls=${pair%:*}
  expect_exit "${pair#*:}" "selftest-error $cls" run_sjos selftest-error "$cls"
done
expect_exit 3 "selftest-error rejects unknown class" \
  run_sjos selftest-error no_such_class

# ---- disk storage failure paths -------------------------------------
# A server with --storage disk opens its column file lazily, on the
# first page fault.  Damaging the file between startup and the first
# query therefore surfaces as a structured corrupt_input error on the
# request that faults -- never a crash -- and the server stays up.
#
# These need a long-lived background process, so they use the built
# binary directly (dune exec would put dune between us and the signal).
BIN=./_build/default/bin/sjos.exe
if [ ! -x "$BIN" ]; then
  case "$SJOS" in
  *dune*) : ;; # dune exec above already built it; if not, skip below
  *) BIN=${SJOS% *} ;;
  esac
fi
if [ -x "$BIN" ]; then
  # the write path fails structurally too: a store whose temp directory
  # cannot be created is corrupt_input (exit 7), not an uncaught Sys_error
  expect_exit 7 "disk store: temp dir cannot be created" \
    env TMPDIR=/nonexistent "$BIN" query "manager(//employee(/name))" "$XML" \
    --storage disk

  SOCK="${TMPDIR:-/tmp}/sjos_smoke_$$.sock"
  DIR="${TMPDIR:-/tmp}/sjos_smoke_store_$$"

  wait_ready() { # wait_ready PID LABEL -> 0 when serving, 1 on timeout
    tries=0
    while ! "$BIN" client health --socket "$SOCK" >/dev/null 2>&1; do
      tries=$((tries + 1))
      if [ "$tries" -ge 100 ]; then
        say "FAIL $2: server (pid $1) never became ready"
        return 1
      fi
      sleep 0.1
    done
    return 0
  }

  expect_client() { # expect_client CODE CLASS LABEL cmd...
    want=$1
    wantclass=$2
    label=$3
    shift 3
    out=$("$@" 2>/dev/null)
    got=$?
    if [ "$got" -ne "$want" ]; then
      say "FAIL $label: exit $got, wanted $want"
      say "     stdout: $out"
      fails=$((fails + 1))
    elif [ -n "$wantclass" ] &&
      ! printf '%s' "$out" | grep -q "\"class\": \"$wantclass\""; then
      say "FAIL $label: response lacks error class $wantclass:"
      say "     $out"
      fails=$((fails + 1))
    else
      say "ok   $label (exit $got)"
    fi
  }

  serve_disk_case() { # serve_disk_case LABEL DAMAGE-CMD...
    label=$1
    shift
    rm -rf "$DIR" "$SOCK"
    "$BIN" serve "$XML" --socket "$SOCK" --storage disk \
      --store-dir "$DIR" --pool-pages 2 2>/dev/null &
    srv=$!
    if wait_ready "$srv" "$label"; then
      "$@" # damage the column file before the first page fault
      expect_client 7 corrupt_input "$label" \
        "$BIN" client exec --socket "$SOCK" \
        --pattern "manager(//employee(/name))"
      # the fault was isolated to that request: the server still answers
      expect_client 0 "" "$label: server survives the IO fault" \
        "$BIN" client health --socket "$SOCK"
      kill -TERM "$srv" 2>/dev/null
      wait "$srv" 2>/dev/null
      drain_rc=$?
      if [ "$drain_rc" -ne 0 ]; then
        say "FAIL $label: drain exited $drain_rc"
        fails=$((fails + 1))
      fi
    else
      fails=$((fails + 1))
      kill "$srv" 2>/dev/null
      wait "$srv" 2>/dev/null
    fi
    rm -rf "$DIR" "$SOCK"
  }

  serve_disk_case "disk store: missing columns.bin" \
    rm -f "$DIR/columns.bin"
  serve_disk_case "disk store: truncated columns.bin" \
    sh -c ": > '$DIR/columns.bin'"
else
  say "skip disk failure paths: no built binary at $BIN"
fi

rm -f "$BAD" "$TINY"
if [ "$fails" -eq 0 ]; then
  say "cli error smoke: all checks passed"
else
  say "cli error smoke: $fails check(s) FAILED"
  exit 1
fi
