"""JSON problem, scheme and result documents.

All exact quantities (field elements, rationals) travel as strings or
integers so nothing is squeezed through floating point; pmf probabilities
are plain JSON numbers.  Parsing errors carry either the JSON line (for
syntax errors) or the path of the offending field.

A pmf outcome key lists one symbol per user, separated by commas, each
read as ``int()`` reads it (signs, spaces, ``_``, zero padding and
non-ASCII digits included).  Every entry passes six checks, reported for
the first failing entry in map order and in this order: symbol count,
integer symbols, alphabet range, an outcome not listed before, a number
for the probability, and a probability within the float range.  The
entries are parsed in chunks of ``_PMF_CHUNK``.  A plain chunk, whose
every key lists one symbol of 1 to ``_PLAIN_DIGITS`` ASCII digits per
user inside its alphabet, whose outcomes are all new and whose every
probability is an ``int`` or ``float`` that float64 holds, passes all six
checks and is read in one array pass; any other chunk is read entry by
entry, one check after the other.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Any, Optional, Union

import numpy as np

from . import field as ff
from .errors import UnitMismatch, ValidationError
from .netcode import TransmissionScheme
from .rates import RateVector
from .setfun import Value
from .sources import (
    DmmsSource,
    LinearSource,
    Source,
    TableSource,
    make_dmms_source,
    make_linear_source,
    validate,
)


@dataclass(frozen=True)
class ProblemDocument:
    source: Source
    weights: Optional[tuple[Value, ...]]
    n: int
    seed: int
    sha256: str

    @property
    def m(self) -> int:
        return self.source.m


# Fraction("1e100000000") would compute 10**100000000, so larger decimal
# exponents are refused first; the bound is Python's default digit limit
# for one integer string.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)")


def format_value(v: Value) -> Union[str, float]:
    """Lowest-terms fraction string for exact values, number for floats.

    An exact value whose numerator or denominator has more digits than
    Python prints is refused with ``ValidationError``, which names it
    rounded to three digits."""
    if isinstance(v, bool):
        raise TypeError("booleans are not values")
    if isinstance(v, (int, Fraction)):
        try:
            return str(v)
        except ValueError:
            # Python prints no integer past its digit limit; Decimal
            # rounds the value without printing one.
            with localcontext() as ctx:
                ctx.prec = 3
                about = Decimal(v.numerator) / ctx.create_decimal(v.denominator)
            raise ValidationError(
                f"the exact value {about:e} has a numerator or denominator of "
                f"more than {sys.get_int_max_str_digits()} digits, which "
                f"cannot be printed") from None
    return float(v)


def parse_value(raw: Any, where: str) -> Value:
    try:
        return _value(raw)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}")


def _value(raw: Any) -> Value:
    """``parse_value`` without the location, which callers format only
    when they raise: a ValueError says what is wrong."""
    if isinstance(raw, bool):
        raise ValueError("expected a number, got a boolean")
    if isinstance(raw, (int, float)):
        return raw
    if isinstance(raw, str):
        exponent = _EXPONENT.search(raw)
        if exponent:
            digits = exponent[1].replace("_", "").lstrip("0")
            if len(digits) > 4 or int(digits or "0") > MAX_EXPONENT:
                raise ValueError(f"exponent of {raw!r} is beyond {MAX_EXPONENT}")
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid rational {raw!r} ({exc})")
    raise ValueError("expected a number or rational string")


def _expect(mapping: Any, key: str, where: str) -> Any:
    if not isinstance(mapping, dict):
        raise ValidationError(f"{where}: expected an object")
    if key not in mapping:
        raise ValidationError(f"{where}.{key}: missing")
    return mapping[key]


def _int_field(mapping: dict, key: str, where: str, minimum: int = 0) -> int:
    value = _expect(mapping, key, where)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValidationError(f"{where}.{key}: expected an integer >= {minimum}")
    return value


def _parse_linear(data: dict, where: str) -> LinearSource:
    p = _int_field(data, "p", where, minimum=2)
    n_packets = _int_field(data, "N", where, minimum=1)
    raw = _expect(data, "matrices", where)
    if not isinstance(raw, list) or not raw:
        raise ValidationError(f"{where}.matrices: expected a nonempty list")
    mats = []
    for ui, rows in enumerate(raw):
        uwhere = f"{where}.matrices[{ui}]"
        if not isinstance(rows, list):
            raise ValidationError(f"{uwhere}: expected a list of rows")
        clean = []
        for ri, row in enumerate(rows):
            if (not isinstance(row, list) or len(row) != n_packets
                    or any(not isinstance(x, int) or isinstance(x, bool) for x in row)):
                raise ValidationError(
                    f"{uwhere}[{ri}]: expected {n_packets} integers")
            clean.append(row)
        try:
            mats.append(ff.FieldMatrix.from_rows(clean, p, cols=n_packets))
        except ValueError as exc:
            raise ValidationError(f"{uwhere}: {exc}")
    return make_linear_source(mats, p=p, N=n_packets)


# Outcome keys are parsed this many at a time, so that the scratch arrays
# of one pass stay small whatever the size of the document.
_PMF_CHUNK = 1024
# A symbol of at most this many ASCII digits fits an int64.
_PLAIN_DIGITS = 18


def _parse_pmf(data: dict, where: str) -> DmmsSource:
    raw_alpha = _expect(data, "alphabets", where)
    if (not isinstance(raw_alpha, list) or not raw_alpha
            or any(not isinstance(a, int) or isinstance(a, bool) or a < 1
                   for a in raw_alpha)):
        raise ValidationError(f"{where}.alphabets: expected positive integers")
    alphabets = tuple(raw_alpha)
    entries = _expect(data, "entries", where)
    if not isinstance(entries, dict):
        raise ValidationError(f"{where}.entries: expected an outcome->probability map")
    users = len(alphabets)
    try:
        np.empty((0,) * users)
    except ValueError:
        raise ValidationError(f"{where}.alphabets: a pmf of {users} users has "
                              f"more users than a numpy array has axes")
    try:
        table = np.zeros(alphabets, dtype=float)
        seen = np.zeros(table.size, dtype=bool)
    except (ValueError, MemoryError):
        raise ValidationError(
            f"{where}.alphabets: a pmf table of {math.prod(alphabets)} outcomes "
            f"does not fit in memory")
    strides = [math.prod(alphabets[u + 1:]) for u in range(users)]
    flat = table.reshape(-1)
    keys, probs = list(entries), list(entries.values())
    for lo in range(0, len(keys), _PMF_CHUNK):
        chunk, values = keys[lo:lo + _PMF_CHUNK], probs[lo:lo + _PMF_CHUNK]
        if not _read_plain(chunk, values, alphabets, strides, seen, flat):
            _read_entries(chunk, values, alphabets, strides, seen, flat,
                          f"{where}.entries")
    return make_dmms_source(alphabets, table)


def _read_plain(keys: list[str], probs: list, alphabets: tuple[int, ...],
                strides: list[int], seen: np.ndarray, flat: np.ndarray) -> bool:
    """Read a plain chunk of pmf entries into ``flat`` in one pass over the
    keys joined by commas, marking its outcomes in ``seen``; return False,
    having written nothing, for any other chunk."""
    n, users = len(keys), len(alphabets)
    text = ",".join(keys) + ","
    if not text.isascii() or not set(map(type, probs)) <= {int, float}:
        return False
    chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # Symbol t is chars[start[t]:stop[t]], ended by the comma at stop[t];
    # the last one of key i ends where the key does.
    stop = np.flatnonzero(chars - ord("0") >= 10)
    ends = np.cumsum(np.fromiter(map(len, keys), dtype=np.int64, count=n) + 1) - 1
    if (len(stop) != n * users or (chars[stop] != ord(",")).any()
            or (stop[users - 1::users] != ends).any()):
        return False
    start = np.empty_like(stop)
    start[0], start[1:] = 0, stop[:-1] + 1
    width = stop - start
    if width.min() < 1 or width.max() > _PLAIN_DIGITS:
        return False
    value = chars[start].astype(np.int64) - ord("0")
    for k in range(1, int(width.max())):
        t = np.flatnonzero(width > k)
        value[t] = value[t] * 10 + (chars[start[t] + k] - ord("0"))
    symbols = value.reshape(n, users)
    if (symbols >= np.array(alphabets)).any():
        return False
    index = symbols @ np.array(strides, dtype=np.int64)
    ordered = np.sort(index)
    if (ordered[1:] == ordered[:-1]).any() or seen[index].any():
        return False
    try:
        flat[index] = probs
    except OverflowError:
        return False
    seen[index] = True
    return True


def _read_entries(keys: list[str], probs: list, alphabets: tuple[int, ...],
                  strides: list[int], seen: np.ndarray, flat: np.ndarray,
                  where: str) -> None:
    """Read pmf entries one at a time, as ``_read_plain`` does, raising the
    message of the first check that fails, in the order stated above."""
    users = len(alphabets)
    for key, prob in zip(keys, probs):
        parts = key.split(",")
        if len(parts) != users:
            raise _key_error(where, key, f"outcome needs {users} symbols")
        try:
            outcome = list(map(int, parts))
        except ValueError:
            raise _key_error(where, key, "outcome symbols must be integers")
        if not all(0 <= x < a for x, a in zip(outcome, alphabets)):
            raise _key_error(where, key, "outcome outside the alphabets")
        index = sum(x * s for x, s in zip(outcome, strides))
        if seen[index]:
            raise _key_error(where, key, "outcome listed twice")
        seen[index] = True
        if not isinstance(prob, (int, float)) or isinstance(prob, bool):
            raise _key_error(where, key, "probability must be a number")
        try:
            flat[index] = float(prob)
        except OverflowError:
            raise _key_error(where, key, "probability out of the float range")


def _key_error(mapping: str, key: str, what: str) -> ValidationError:
    return ValidationError(f"{mapping}[{key!r}]: {what}")


def _parse_table(data: dict, where: str) -> TableSource:
    m = _int_field(data, "m", where, minimum=1)
    if m > 62:
        raise ValidationError(f"{where}.m: expected at most 62 users, got {m}")
    unit = data.get("unit", "bits")
    if not isinstance(unit, str):
        raise ValidationError(f"{where}.unit: expected a string")
    raw = _expect(data, "entropies", where)
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}.entropies: expected a subset->value map")
    entries: dict[int, Value] = {}
    for key, val in raw.items():
        try:
            users = {int(s) for s in key.split(",") if s.strip() != ""}
        except ValueError:
            raise _key_error(f"{where}.entropies", key,
                             "subset must list user indices")
        if any(not 1 <= u <= m for u in users):
            raise _key_error(f"{where}.entropies", key, f"user index outside 1..{m}")
        mask = 0
        for u in users:
            mask |= 1 << (u - 1)
        if mask in entries:
            raise _key_error(f"{where}.entropies", key, "subset listed twice")
        try:
            entries[mask] = _value(val)
        except ValueError as exc:
            raise _key_error(f"{where}.entropies", key, str(exc))
    return TableSource(m=m, entries=entries, unit=unit)


def parse_weights(raw: Any, m: int, where: str) -> tuple[Value, ...]:
    """m finite nonnegative weights from a list of numbers or rational
    strings: a document's ``weights`` and the items of ``--alpha``."""
    if not isinstance(raw, list) or len(raw) != m:
        raise ValidationError(f"{where}: expected {m} entries")
    weights = tuple(parse_value(w, f"{where}[{i}]") for i, w in enumerate(raw))
    for i, w in enumerate(weights):
        if isinstance(w, float) and not math.isfinite(w):
            raise ValidationError(f"{where}[{i}]: not a finite number")
        if w < 0:
            raise ValidationError(f"{where}[{i}]: negative weight {w}")
    return weights


def parse_problem(data: Any, *, sha256: str = "", where: str = "$") -> ProblemDocument:
    src_raw = _expect(data, "source", where)
    kind = _expect(src_raw, "kind", f"{where}.source")
    if kind == "linear":
        source: Source = _parse_linear(src_raw, f"{where}.source")
    elif kind == "pmf":
        source = _parse_pmf(src_raw, f"{where}.source")
    elif kind == "table":
        source = _parse_table(src_raw, f"{where}.source")
    else:
        raise ValidationError(
            f"{where}.source.kind: expected 'linear', 'pmf' or 'table', got {kind!r}")
    problems = validate(source)
    if problems:
        raise ValidationError("; ".join(f"{where}.source: {p}" for p in problems))

    weights: Optional[tuple[Value, ...]] = None
    if "weights" in data and data["weights"] is not None:
        weights = parse_weights(data["weights"], source.m, f"{where}.weights")

    n = data.get("n", 1)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"{where}.n: expected a positive integer")
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"{where}.seed: expected a nonnegative integer")
    return ProblemDocument(source=source, weights=weights, n=n, seed=seed,
                           sha256=sha256)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """One JSON object as a dict, refusing a key written twice, whose
    earlier values a plain dict would silently drop."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"key {key!r} appears twice in one object")
            seen.add(key)
    return obj


def _load_json(path: str) -> tuple[Any, str]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}")
    try:
        return (json.loads(blob.decode("utf-8"), object_pairs_hook=_unique_keys),
                hashlib.sha256(blob).hexdigest())
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8 ({exc})")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}: {exc.msg}")
    except ValueError as exc:
        # An integer literal past int()'s digit limit, or a key written twice.
        raise ValidationError(f"{path}: {exc}")


def load_problem(path: str) -> ProblemDocument:
    data, digest = _load_json(path)
    return parse_problem(data, sha256=digest, where=path)


def scheme_to_json(scheme: TransmissionScheme, unit: str) -> dict:
    return {
        "kind": "scheme",
        "p": scheme.p,
        "n": scheme.n,
        "unit": unit,
        "coefficients": [
            {"rows": c.rows, "cols": c.cols,
             "entries": [x for row in c.to_rows() for x in row]}
            for c in scheme.coefficients
        ],
    }


def parse_scheme(data: Any, where: str = "$") -> tuple[TransmissionScheme, str]:
    kind = _expect(data, "kind", where)
    if kind != "scheme":
        raise ValidationError(f"{where}.kind: expected 'scheme', got {kind!r}")
    p = _int_field(data, "p", where, minimum=2)
    n = _int_field(data, "n", where, minimum=1)
    unit = data.get("unit", "")
    if not isinstance(unit, str):
        raise ValidationError(f"{where}.unit: expected a string")
    raw = _expect(data, "coefficients", where)
    if not isinstance(raw, list):
        raise ValidationError(f"{where}.coefficients: expected a list")
    coeffs = []
    for ui, entry in enumerate(raw):
        uwhere = f"{where}.coefficients[{ui}]"
        rows = _int_field(entry, "rows", uwhere)
        cols = _int_field(entry, "cols", uwhere)
        ents = _expect(entry, "entries", uwhere)
        if (not isinstance(ents, list)
                or any(not isinstance(x, int) or isinstance(x, bool) for x in ents)):
            raise ValidationError(f"{uwhere}.entries: expected integers")
        try:
            coeffs.append(ff.FieldMatrix(rows, cols, p, ents))
        except Exception as exc:
            raise ValidationError(f"{uwhere}: {exc}")
    return TransmissionScheme(n=n, p=p, coefficients=tuple(coeffs)), unit


def load_scheme(path: str, expected_unit: Optional[str] = None
                ) -> TransmissionScheme:
    data, _digest = _load_json(path)
    scheme, unit = parse_scheme(data, where=path)
    if expected_unit is not None and unit and unit != expected_unit:
        raise UnitMismatch(
            f"{path}: scheme unit {unit!r} does not match problem unit "
            f"{expected_unit!r}")
    return scheme


def rates_to_json(rates: RateVector) -> list:
    return [format_value(v) for v in rates.values]


def dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def render_table(doc: dict, indent: str = "") -> str:
    """Aligned plain-text rendering of a (nested) result document."""
    lines: list[str] = []
    scalars = [(k, v) for k, v in doc.items() if not isinstance(v, (dict, list))]
    width = max((len(k) for k, _ in scalars), default=0)
    for key, value in doc.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(render_table(value, indent + "  "))
        elif isinstance(value, list):
            rendered = " ".join(
                json.dumps(x) if isinstance(x, (dict, list)) else str(x)
                for x in value)
            lines.append(f"{indent}{key:<{width}}  {rendered}")
        else:
            lines.append(f"{indent}{key:<{width}}  {value}")
    return "\n".join(lines)
