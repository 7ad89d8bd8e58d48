#!/usr/bin/env bash
# Smoke-tests the installed omniex console script, away from the checkout:
# the tests run the CLI as a module from src/, this runs the command that
# the install put on PATH.  Run it from the repository or give the
# repository as GITHUB_WORKSPACE.
set -euo pipefail
repo="${GITHUB_WORKSPACE:-$(cd "$(dirname "$0")/../.." && pwd)}"
cd "$(mktemp -d)"
problem="$repo/src/omniex/fixtures/example1.json"
omniex code "$problem" --out s.json
omniex verify "$problem" s.json > verify.json
grep -q '"omniscience": true' verify.json
# code reports the ranks its draw was verified with: at n = 4 the draw
# repeats a base, and verify ranks the written scheme afresh.
omniex code "$problem" --n 4 --out s4.json > code4.json
omniex verify "$problem" s4.json > verify4.json
python -c 'import json, sys; code, verify = (json.load(open(f)) for f in sys.argv[1:]); assert code["receivers"] == verify["receivers"], (code, verify)' code4.json verify4.json
# The weighted path: rates and ilp with weights, checked in Fractions:
# cost = sum of weight * rate, sum_rate >= min_sum_rate, and the ilp rates
# are multiples of 1/n.  The weights visit the users out of index order,
# so the sweep relabels the table.
check_weighted() {
  python - "$@" <<'PY'
import json, sys
from fractions import Fraction
n = int(sys.argv[1])
docs = [json.load(open(path)) for path in sys.argv[2:]]
for doc in docs:
    rates = [Fraction(r) for r in doc["rates"]]
    cost = sum(Fraction(w) * r for w, r in zip(doc["weights"], rates))
    assert Fraction(doc["cost"]) == cost, doc
    assert Fraction(doc["sum_rate"]) >= Fraction(doc["min_sum_rate"]), doc
assert all((n * Fraction(r)).denominator == 1 for r in docs[1]["rates"]), docs[1]
PY
}
omniex rates "$problem" --alpha 3,1,2 > rates.json
omniex ilp "$problem" --alpha 3,1,2 --n 2 > ilp.json
check_weighted 2 rates.json ilp.json
# example1's subset ranks times 2/3, a table of Fractions: its keys have
# dtype object, so the sweep doubles its sums in place on Python numbers.
cat > thirds.json <<'JSON'
{"source": {"kind": "table", "m": 3, "entropies": {"1": "4/3", "2": "4/3", "3": "4/3",
 "1,2": "2", "1,3": "2", "2,3": "2", "1,2,3": "2"}}}
JSON
omniex rates thirds.json --alpha 3,1,2 > thirds-rates.json
omniex ilp thirds.json --alpha 3,1,2 --n 3 > thirds-ilp.json
check_weighted 3 thirds-rates.json thirds-ilp.json
# code refuses p <= m before it solves: example1 over F_2.
python -c 'import json, sys; doc = json.load(open(sys.argv[1])); doc["source"]["p"] = 2; json.dump(doc, open("f2.json", "w"))' "$problem"
status=0
omniex code f2.json --out f2-scheme.json > f2.out 2> f2.err || status=$?
test "$status" -eq 4
grep -q 'field size 2 must exceed the number of users 3' f2.err
if grep -q Traceback f2.err; then cat f2.err; exit 1; fi
for fixture in example1 figure1; do
  omniex selfcheck "$repo/src/omniex/fixtures/$fixture.json" > selfcheck.json
  grep -q '"ok": true' selfcheck.json
done
