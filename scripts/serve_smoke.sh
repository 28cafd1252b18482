#!/usr/bin/env sh
# End-to-end smoke for `sjos serve` + `sjos client`: boot a server on a
# Unix-domain socket, drive every protocol op through the real wire
# format, assert served results agree with direct `sjos query`, and
# check that SIGTERM drains cleanly (exit 0, final metrics on stderr,
# socket unlinked).
#
# Usage:  scripts/serve_smoke.sh [path/to/sjos.exe]
# Defaults to the dune build output; run from the repository root.

set -u

BIN="${1:-./_build/default/bin/sjos.exe}"
TMP="${TMPDIR:-/tmp}"
XML="$TMP/sjos_serve_smoke_$$.xml"
SOCK="$TMP/sjos_serve_smoke_$$.sock"
TENANTS="$TMP/sjos_serve_smoke_$$.tenants.json"
ERR="$TMP/sjos_serve_smoke_$$.stderr"
fails=0
srv=

say() { printf '%s\n' "$*"; }

check() { # check LABEL COND-DESCRIPTION; caller sets ok=0/1
  if [ "$ok" -eq 0 ]; then
    say "ok   $1"
  else
    say "FAIL $1"
    fails=$((fails + 1))
  fi
}

cleanup() {
  [ -n "$srv" ] && kill "$srv" 2>/dev/null
  rm -f "$XML" "$SOCK" "$TENANTS" "$ERR"
}
trap cleanup EXIT

"$BIN" gen pers -n 2000 -o "$XML" || { say "FAIL gen"; exit 1; }

cat > "$TENANTS" <<'EOF'
{"default": {"max_concurrent": 4},
 "tenants": {"capped": {"max_concurrent": 1, "max_tuples": 5}}}
EOF

"$BIN" serve "$XML" --socket "$SOCK" --tenants "$TENANTS" \
  --max-active 2 --max-queue 4 2> "$ERR" &
srv=$!

tries=0
until "$BIN" client health --socket "$SOCK" > /dev/null 2>&1; do
  tries=$((tries + 1))
  [ "$tries" -ge 100 ] && { say "FAIL server never became ready"; exit 1; }
  sleep 0.1
done
say "ok   server ready on $SOCK"

Q="manager(//employee(/name))"

# served result must equal the direct CLI result (same doc, same query)
direct=$("$BIN" query "$Q" "$XML" --json | python3 -c \
  'import json,sys; print(json.load(sys.stdin)["matches"])')
exec1=$("$BIN" client exec --socket "$SOCK" --pattern "$Q")
served=$(printf '%s' "$exec1" | python3 -c \
  'import json,sys; print(json.load(sys.stdin)["matches"])')
[ "$direct" = "$served" ] && [ -n "$direct" ]; ok=$?
check "served matches == direct query matches ($served)"

# the second identical exec must hit the plan cache
printf '%s' "$("$BIN" client exec --socket "$SOCK" --pattern "$Q")" \
  | grep -q '"plan_cached": true'; ok=$?
check "repeat exec reuses the cached plan"

# prepare once, exec by name, explain and analyze all answer
"$BIN" client prepare --socket "$SOCK" --pattern "$Q" --name q1 \
  > /dev/null 2>&1 &&
  "$BIN" client exec --socket "$SOCK" --name q1 > /dev/null 2>&1 &&
  "$BIN" client explain --socket "$SOCK" --pattern "$Q" > /dev/null 2>&1 &&
  "$BIN" client analyze --socket "$SOCK" --pattern "$Q" > /dev/null 2>&1
ok=$?
check "prepare/exec-by-name/explain/analyze round-trips"

# the server reads the same algorithm names as `sjos query -a`
printf '%s' "$("$BIN" client exec --socket "$SOCK" --pattern "$Q" \
  --algorithm bigdp:64)" | grep -q '"algorithm": "BigDP(64)"'; ok=$?
check "exec --algorithm bigdp:64 runs BigDP(64)"

# an unknown algorithm is a structured invalid_request -> exit 3
"$BIN" client exec --socket "$SOCK" --pattern "$Q" --algorithm nope \
  > /dev/null 2>&1
[ $? -eq 3 ]; ok=$?
check "unknown algorithm maps to exit 3"

# tenant quota: the capped tenant's 5-tuple ceiling fires as a
# structured budget_exhausted wire error -> client exits 5
"$BIN" client exec --socket "$SOCK" --pattern "$Q" --tenant capped \
  > /dev/null 2>&1
[ $? -eq 5 ]; ok=$?
check "capped tenant's tuple quota maps to exit 5"

# a bad pattern comes back as a structured parse_error -> exit 2
"$BIN" client exec --socket "$SOCK" --pattern "manager(||x)" \
  > /dev/null 2>&1
[ $? -eq 2 ]; ok=$?
check "server-side parse error maps to exit 2"

# metrics endpoint shares the local `sjos metrics` shape + serve block
"$BIN" client metrics --socket "$SOCK" | python3 -c '
import json, sys
doc = json.load(sys.stdin)
serve = doc["serve"]
assert serve["active"] >= 0 and serve["max_active"] == 2
assert serve["requests"] >= 5, serve
assert serve["escaped"] == 0, "an exception escaped"
assert any(t["admitted"] > 0 for t in serve["tenants"]), serve["tenants"]
'; ok=$?
check "metrics endpoint counts requests and admissions, zero escaped"

# SIGTERM: in-flight work finishes, process exits 0, final metrics are
# flushed to stderr, and the socket path is unlinked
kill -TERM "$srv"
wait "$srv"
rc=$?
srv=
[ "$rc" -eq 0 ]; ok=$?
check "SIGTERM drain exits 0 (got $rc)"
grep -q '"serve"' "$ERR"; ok=$?
check "drain flushes final metrics to stderr"
[ ! -e "$SOCK" ]; ok=$?
check "socket unlinked after drain"

if [ "$fails" -eq 0 ]; then
  say "serve smoke: all checks passed"
else
  say "serve smoke: $fails check(s) FAILED"
  exit 1
fi
