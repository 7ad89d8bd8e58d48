"""Command line front end.

Subcommands: rates | ilp | code | verify | selfcheck.  Input is a JSON
problem document (and a scheme document for ``verify``); output is a
deterministic JSON result document, or an aligned table with
``--format table``.

Exit codes: 0 success, 1 property or verification failure, 2 invalid
input (a key written twice in one JSON object included; or, except for
``verify``, more than ``sources.TABLE_CAP`` users; for ``code`` and
``verify``, n*N above ``netcode.WIDTH_CAP``; a table that is not an
entropy function; weights whose costs overflow floats; for ``rates``, a
float table whose rates cannot be certified; for ``ilp``, every pmf
source or float table, whose rates are real numbers (``ilp needs exact
entropies``), and exact entropies that are not multiples of 1/n), 3 unit
mismatch, 4 field too small, 5 construction failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import documents as docs
from . import netcode, rates, setfun, sources
from .errors import (
    ConstructionFailed,
    DimensionMismatch,
    FieldTooSmall,
    InfeasibleBeta,
    InfeasibleRates,
    InvalidN,
    NegativeWeight,
    NonConvergence,
    NonIntegerRates,
    NonTermination,
    OmniexError,
    TooLarge,
    UnitMismatch,
    ValidationError,
)

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INVALID = 2
EXIT_UNIT = 3
EXIT_FIELD = 4
EXIT_CONSTRUCTION = 5

# Exit code of each error kind, tried in order: the first matching entry
# wins, so the catch-all OmniexError comes last.
EXIT_CODES = (
    ((ValidationError, InvalidN, NonIntegerRates, NegativeWeight, TooLarge), EXIT_INVALID),
    (UnitMismatch, EXIT_UNIT),
    (FieldTooSmall, EXIT_FIELD),
    (ConstructionFailed, EXIT_CONSTRUCTION),
    (OmniexError, EXIT_PROPERTY),
)


def _effective_alpha(doc: docs.ProblemDocument, args, oracle) -> tuple:
    if getattr(args, "alpha", None) is not None:
        alpha = docs.parse_weights([p.strip() for p in args.alpha.split(",")],
                                   doc.m, "--alpha")
    elif doc.weights is not None:
        alpha = doc.weights
    else:
        return (1,) * doc.m
    if not oracle.exact or any(isinstance(a, float) for a in alpha):
        # Costs are then floats: sums over users of a weight times a rate.
        # Each is at most sum(alpha) * (H(X_M) + 1), a budget rounded up to
        # a multiple of 1/n included, and m times that leaves room for the
        # slopes and intercepts of the weighted bracket.
        try:
            bound = oracle.m * float(sum(alpha)) * (float(oracle.total()) + 1)
        except OverflowError:
            bound = math.inf
        if not bound < math.inf:
            raise ValidationError(
                "weights too large: m * sum(weights) * (H(X_M) + 1) is beyond "
                "the float range, so the costs would overflow")
    return alpha


def _oracle(doc: docs.ProblemDocument) -> sources.EntropyOracle:
    """The oracle of a document to solve.  A table document must be an
    entropy function, as linear and pmf sources are by construction."""
    oracle = sources.EntropyOracle(doc.source)
    if isinstance(doc.source, sources.TableSource):
        monotone, submodular = oracle.violations()
        if monotone is not None:
            s, i = monotone
            raise ValidationError(
                f"entropy table is not monotone: H(S + i) < H(S) at "
                f"S = {setfun.label(s)}, i = {i + 1}")
        if submodular is not None:
            s, i, j = submodular
            raise ValidationError(
                f"entropy table is not submodular: H(S + i) + H(S + j) < "
                f"H(S + i + j) + H(S) at S = {setfun.label(s)}, i = {i + 1}, j = {j + 1}")
    return oracle


def _is_uniform(alpha: Sequence) -> bool:
    return all(a == alpha[0] for a in alpha) and alpha[0] > 0


def _partition_blocks(partition: rates.PartitionResult) -> list[list[int]]:
    return [[u + 1 for u in block] for block in partition.as_sets()]


def _base_result(doc: docs.ProblemDocument, command: str, unit: str) -> dict:
    return {
        "command": command,
        "input_sha256": doc.sha256,
        "m": doc.m,
        "unit": unit,
    }


def _emit(out: dict, args) -> None:
    if getattr(args, "format", "json") == "table":
        print(docs.render_table(out))
    else:
        print(docs.dump_json(out), end="")


def cmd_rates(args) -> int:
    doc = docs.load_problem(args.problem)
    oracle = _oracle(doc)
    alpha = _effective_alpha(doc, args, oracle)
    try:
        rco = rates.rco_sum_rate(oracle)
        if _is_uniform(alpha):
            chosen = rco.rates
            beta_star = rco.value
            cost = rco.value * alpha[0]
            iterations = rco.iterations
            evaluations = rco.evaluations
        else:
            weighted = rates.minimize_weighted(oracle, alpha, rco=rco)
            chosen = weighted.rates
            beta_star = weighted.beta_star
            cost = weighted.cost
            iterations = rco.iterations + weighted.iterations
            evaluations = weighted.evaluations
        if not rates.verify_feasible(oracle, chosen):
            raise InfeasibleRates("internal error: emitted rates are infeasible")
    except (InfeasibleBeta, InfeasibleRates, NonConvergence, NonTermination):
        # A float table is an entropy function only within DELTA, and the
        # sweep admits ties, and the weighted bracket closes, within
        # absolute bounds that the float spacing of large entropies can
        # exceed.  So its walk can run past m sweeps, its bracket past its
        # iteration budget, and its solve can miss a cut or its own budget;
        # elsewhere each is a solver fault.
        if isinstance(oracle.source, sources.TableSource) and not oracle.exact:
            raise ValidationError(
                f"the table is an entropy function only within {setfun.DELTA!r}, "
                f"so its rates cannot be certified") from None
        raise
    out = _base_result(doc, "rates", oracle.unit)
    out.update({
        "weights": [docs.format_value(a) for a in alpha],
        "rates": docs.rates_to_json(chosen),
        "sum_rate": docs.format_value(chosen.total()),
        "beta_star": docs.format_value(beta_star),
        "cost": docs.format_value(cost),
        "min_sum_rate": docs.format_value(rco.value),
        "partition": _partition_blocks(rco.partition),
        "key_capacity": docs.format_value(oracle.total() - rco.value),
        "diagnostics": {
            "iterations": iterations,
            "entropy_queries": oracle.oracle_queries(),
            "sfm_evaluations": evaluations,
        },
    })
    _emit(out, args)
    return EXIT_OK


def cmd_ilp(args) -> int:
    doc = docs.load_problem(args.problem)
    oracle = _oracle(doc)
    alpha = _effective_alpha(doc, args, oracle)
    n = args.n if args.n is not None else doc.n
    result = rates.ilp_rates(oracle, alpha, n)
    rco = result.rco
    if not rates.verify_feasible(oracle, result.rates):
        raise InfeasibleRates("internal error: emitted rates are infeasible")
    out = _base_result(doc, "ilp", oracle.unit)
    out.update({
        "weights": [docs.format_value(a) for a in alpha],
        "n": n,
        "rates": docs.rates_to_json(result.rates),
        "sum_rate": docs.format_value(result.rates.total()),
        "beta": docs.format_value(result.beta),
        "cost": docs.format_value(result.cost),
        "gap_bound": docs.format_value(result.gap_bound),
        "min_sum_rate": docs.format_value(rco.value),
        "partition": _partition_blocks(rco.partition),
        "key_capacity": docs.format_value(oracle.total() - rco.value),
        "diagnostics": {
            "iterations": rco.iterations,
            "entropy_queries": oracle.oracle_queries(),
            "sfm_evaluations": rco.evaluations,
        },
    })
    _emit(out, args)
    return EXIT_OK


def _receivers(ranks: list[tuple[int, int]]) -> list[dict]:
    return [{"receiver": j + 1, "achieved_rank": got, "required_rank": need,
             "status": "pass" if got == need else "fail"}
            for j, (got, need) in enumerate(ranks)]


def cmd_code(args) -> int:
    doc = docs.load_problem(args.problem)
    if not isinstance(doc.source, sources.LinearSource):
        raise ValidationError("code construction needs a linear source document")
    src = doc.source
    oracle = _oracle(doc)
    alpha = _effective_alpha(doc, args, oracle)
    n = args.n if args.n is not None else doc.n
    seed = args.seed if args.seed is not None else doc.seed
    if seed < 0:
        # random.Random seeds by |seed|, so -4 would silently draw as 4.
        raise ValidationError(f"--seed: expected a nonnegative integer, got {seed}")
    netcode.check_construction(src, n, args.max_tries)
    result = rates.ilp_rates(oracle, alpha, n)
    if not rates.verify_feasible(oracle, result.rates):
        raise InfeasibleRates("internal error: emitted rates are infeasible")
    scheme = netcode.construct_code(src, result.rates, n, seed=seed,
                                    max_tries=args.max_tries)
    scheme_doc = docs.scheme_to_json(scheme, oracle.unit)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(docs.dump_json(scheme_doc))
    except OSError as exc:
        raise ValidationError(f"{args.out}: {exc}") from None
    out = _base_result(doc, "code", oracle.unit)
    out.update({
        "n": n,
        "seed": seed,
        "rates": docs.rates_to_json(result.rates),
        "sum_rate": docs.format_value(result.rates.total()),
        "broadcast_rows": [c.rows for c in scheme.coefficients],
        "scheme_file": args.out,
        # construct_code returns only a draw whose check found every
        # receiver at full rank n*N, so nothing is eliminated again.
        "receivers": _receivers([(n * src.N, n * src.N)] * src.m),
        "diagnostics": {"entropy_queries": oracle.oracle_queries()},
    })
    _emit(out, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    doc = docs.load_problem(args.problem)
    if not isinstance(doc.source, sources.LinearSource):
        raise ValidationError("verification needs a linear source document")
    src = doc.source
    unit = src.unit
    scheme = docs.load_scheme(args.scheme, expected_unit=unit)
    if scheme.p != src.p:
        raise UnitMismatch(
            f"scheme symbols are F_{scheme.p}, problem symbols are F_{src.p}")
    try:
        ranks = netcode.receiver_ranks(src, scheme)
    except DimensionMismatch as exc:
        raise ValidationError(f"{args.scheme}: {exc}") from exc
    ok = all(got == need for got, need in ranks)
    out = _base_result(doc, "verify", unit)
    out.update({
        "scheme_file": args.scheme,
        "n": scheme.n,
        "broadcast_rows": [c.rows for c in scheme.coefficients],
        "receivers": _receivers(ranks),
        "omniscience": ok,
    })
    _emit(out, args)
    return EXIT_OK if ok else EXIT_PROPERTY


def _selfcheck_entries(oracle) -> list[dict]:
    # The brute-force oracles are loaded by this command alone.
    from . import reference

    checks: list[dict] = []
    m = oracle.m
    brute_force = m <= 8

    def record(name: str, status: str, detail: str = "") -> None:
        entry = {"name": name, "status": status}
        if detail:
            entry["detail"] = detail
        checks.append(entry)

    # The oracle validated its source when it was built.
    record("source-valid", "pass")
    record("entropy-empty-zero",
           "pass" if setfun.value_eq(oracle.entropy(0), 0, oracle.exact) else "fail")

    full = oracle.full_mask
    # The checks below read every subset, so they read them from the table.
    table = oracle.array()
    if not brute_force:
        record("exhaustive-checks", "skipped",
               f"m={m} > 8, the brute-force cross-checks are skipped")
    monotone, submodular = oracle.violations()
    mono_ok, sub_ok = monotone is None, submodular is None
    record("entropy-monotone", "pass" if mono_ok else "fail")
    record("entropy-submodular", "pass" if sub_ok else "fail")

    # H(S | S^c) = H(M) - H(S^c) for every nonempty S at once: S^c is
    # full - S, so the complements' entropies are the table reversed.
    cond = table[full] - table[-2::-1]
    cond_ok = bool(setfun.value_le(0, cond, oracle.exact).all()
                   and setfun.value_le(cond, table[1:], oracle.exact).all())
    record("conditional-entropy-bounds", "pass" if cond_ok else "fail")

    if not sub_ok or not mono_ok:
        return checks

    if brute_force:
        record("budget-function-intersecting-submodular",
               "pass" if reference.is_intersecting_submodular(oracle.f_beta(0))
               else "fail")
        record("budget-function-submodular-at-total",
               "pass" if reference.is_submodular(oracle.f_beta(oracle.total()))
               else "fail")

    try:
        rco = rates.rco_sum_rate(oracle)
    except NonTermination as exc:
        # The walk stops past m iterations: a finding to report, which
        # leaves the checks below with no sum rate to check.
        record("sum-rate-iterations", "fail", str(exc))
        return checks
    record("sum-rate-iterations", "pass", f"{rco.iterations} iterations for m={m}")
    record("sum-rate-rates-feasible",
           "pass" if rates.verify_feasible(oracle, rco.rates) else "fail")
    if brute_force:
        formula = rates.rco_partition_formula(oracle)
        record("sum-rate-partition-formula",
               "pass" if setfun.value_eq(rco.value, formula, oracle.exact) else "fail",
               f"iterative {rco.value} vs enumerated {formula}")
        betas = [rco.value, oracle.total()]
        mid = (rco.value + oracle.total())
        betas.append(Fraction(mid, 2) if oracle.exact else mid / 2)
        dil_ok = True
        for beta in betas:
            sweep = rates.modified_edmond(oracle, beta)
            ref, _part = reference.dilworth_bruteforce(oracle.f_beta(beta), full)
            if not setfun.value_eq(sweep.g_value, ref, oracle.exact):
                dil_ok = False
        record("dilworth-cross-check", "pass" if dil_ok else "fail")
    seg_ok, seg_detail = True, ""
    for probe in (rco.value, oracle.total()):
        try:
            seg = rates.h_eval(oracle, (1,) * m, probe).segment
        except InfeasibleBeta as exc:
            # The sum-rate walk's own budget is refused by the sweep: a
            # finding to report, not a reason to stop the report.
            seg_ok, seg_detail = False, f"h_eval at beta = {probe}: {exc}"
            break
        if sum(seg.b) != 1:
            seg_ok = False
    record("segment-sum-law", "pass" if seg_ok else "fail", seg_detail)
    return checks


def cmd_selfcheck(args) -> int:
    doc = docs.load_problem(args.problem)
    oracle = sources.EntropyOracle(doc.source)
    checks = _selfcheck_entries(oracle)
    ok = all(c["status"] != "fail" for c in checks)
    out = _base_result(doc, "selfcheck", oracle.unit)
    out.update({"checks": checks, "ok": ok})
    _emit(out, args)
    return EXIT_OK if ok else EXIT_PROPERTY


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` does
    not change it, and one build costs as much as dozens of parses."""
    parser = argparse.ArgumentParser(
        prog="omniex",
        description="Minimum-cost rate allocation and code construction "
                    "for broadcast data exchange")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_n=False, with_seed=False):
        p.add_argument("problem", help="problem document (JSON)")
        p.add_argument("--alpha", help="comma-separated weights, overrides the document")
        if with_n:
            p.add_argument("--n", type=int, default=None,
                           help="block length (denominator of the rates)")
        if with_seed:
            p.add_argument("--seed", type=int, default=None,
                           help="seed for the randomized completion")
        p.add_argument("--format", choices=("json", "table"), default="json")

    p_rates = sub.add_parser("rates", help="optimal (possibly weighted) rate allocation")
    common(p_rates)
    p_rates.set_defaults(func=cmd_rates)

    p_ilp = sub.add_parser("ilp", help="optimal rates at denominator n")
    common(p_ilp, with_n=True)
    p_ilp.set_defaults(func=cmd_ilp)

    p_code = sub.add_parser("code", help="construct a transmission scheme")
    common(p_code, with_n=True, with_seed=True)
    p_code.add_argument("--out", default="scheme.json",
                        help="path for the scheme document")
    p_code.add_argument("--max-tries", type=int, default=64,
                        help="random completion attempts before giving up")
    p_code.set_defaults(func=cmd_code)

    p_verify = sub.add_parser("verify", help="check a scheme against a problem")
    p_verify.add_argument("problem", help="problem document (JSON)")
    p_verify.add_argument("scheme", help="scheme document (JSON)")
    p_verify.add_argument("--format", choices=("json", "table"), default="json")
    p_verify.set_defaults(func=cmd_verify)

    p_self = sub.add_parser("selfcheck", help="run the invariant suite on a document")
    p_self.add_argument("problem", help="problem document (JSON)")
    p_self.add_argument("--format", choices=("json", "table"), default="json")
    p_self.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OmniexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds))


if __name__ == "__main__":
    sys.exit(main())
