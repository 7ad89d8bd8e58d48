"""JSON problem, scheme and result documents.

All exact quantities (field elements, rationals) travel as strings or
integers so nothing is squeezed through floating point; pmf probabilities
are plain JSON numbers.  Parsing errors carry either the JSON line (for
syntax errors) or the path of the offending field.

A pmf outcome key lists one symbol per user, separated by commas, each
read as ``int()`` reads it (signs, spaces, ``_``, zero padding and
non-ASCII digits included).  The keys are parsed in chunks of
``_PMF_CHUNK``, each in one array pass: plain decimal symbols are folded
in arrays and only the other keys go through ``int()``.  Every entry
passes six checks, reported for the first failing entry in map order
and in this order: symbol count, integer symbols, alphabet range, an
outcome not listed before, a number for the probability, and a
probability within the float range.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
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


def format_value(v: Value) -> Union[str, float]:
    """Lowest-terms fraction string for exact values, number for floats."""
    if isinstance(v, bool):
        raise TypeError("booleans are not values")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return str(v)
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
# float() of an int overflows from here on: the midpoint between the
# largest double and 2^1024 rounds up to 2^1024.
_FLOAT_EDGE = 2 ** 1024 - 2 ** 970
# The checks on one pmf entry, in the order they are reported.
_PMF_CHECKS = (
    "outcome needs {users} symbols",
    "outcome symbols must be integers",
    "outcome outside the alphabets",
    "outcome listed twice",
    "probability must be a number",
    "probability out of the float range",
)


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
    try:
        table = np.zeros(alphabets, dtype=float)
        seen = np.zeros(table.size, dtype=bool)
    except (ValueError, MemoryError):
        raise ValidationError(
            f"{where}.alphabets: a pmf table of {math.prod(alphabets)} outcomes "
            f"does not fit in memory")
    users = len(alphabets)
    sizes = np.array(alphabets, dtype=np.int64)
    strides = np.array([math.prod(alphabets[u + 1:]) for u in range(users)],
                       dtype=np.int64)
    flat = table.reshape(-1)
    keys, probs = list(entries), list(entries.values())
    for lo in range(0, len(keys), _PMF_CHUNK):
        chunk = keys[lo:lo + _PMF_CHUNK]
        symbols, count_bad, int_bad = _outcome_symbols(chunk, users)
        inside = ((symbols >= 0) & (symbols < sizes)).all(axis=1)
        symbols[~inside] = 0
        index = symbols @ strides
        earliest = np.zeros(len(chunk), dtype=bool)
        earliest[np.unique(index, return_index=True)[1]] = True
        values, not_number, overflow = _probabilities(probs[lo:lo + _PMF_CHUNK])
        # One row per check, one column per entry.  A verdict can be wrong
        # only on an entry that failed an earlier check or that follows a
        # failed entry, so the first failure found is the one to report.
        failed = np.stack([count_bad, int_bad, ~inside, ~earliest | seen[index],
                           not_number, overflow])
        if failed.any():
            entry = int(failed.any(axis=0).argmax())
            check = _PMF_CHECKS[int(failed[:, entry].argmax())]
            raise _key_error(f"{where}.entries", chunk[entry],
                             check.format(users=users))
        seen[index] = True
        flat[index] = values
    return make_dmms_source(alphabets, table)


def _outcome_symbols(keys: list[str], users: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The symbols of each outcome key, read in one pass over the keys
    joined by commas.

    Returns an (n, users) int64 array and two flags per key: a wrong number
    of symbols, and a symbol that int() refuses.  A row means something only
    where neither flag is set.  Symbols of 1 to ``_PLAIN_DIGITS`` ASCII
    digits are folded in arrays.  The other keys with the right count go
    through int() one symbol at a time, as Python reads them: signs, spaces,
    underscores and non-ASCII digits included.  Their values beyond int64
    are clamped to -1 or 2^62, outside every alphabet.
    """
    n = len(keys)
    text = ",".join(keys) + ","
    if text.isascii():
        chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        # One code point per character; all past ASCII read as non-digits.
        wide = np.frombuffer(text.encode("utf-32-le", "surrogatepass"),
                             dtype=np.uint32)
        chars = np.minimum(wide, 0xFF).astype(np.uint8)
    # Token t is chars[start[t]:stop[t]], each ended by a comma.  Key i owns
    # the tokens first[i] to after[i] - 1; the comma at ends[i] that joins
    # it to the next key ends its last one.
    stop = np.flatnonzero(chars == ord(","))
    start = np.empty_like(stop)
    start[0], start[1:] = 0, stop[:-1] + 1
    width = stop - start
    ends = np.cumsum(np.fromiter(map(len, keys), dtype=np.int64, count=n) + 1) - 1
    after = np.searchsorted(stop, ends) + 1
    first = np.empty_like(after)
    first[0], first[1:] = 0, after[:-1]
    count_bad = after - first != users

    plain = (width > 0) & (width <= _PLAIN_DIGITS)
    digits = chars - ord("0") < 10
    if np.count_nonzero(digits) + len(stop) < len(chars):
        nondigits = np.zeros(len(chars) + 1, dtype=np.int64)
        np.cumsum(~digits, out=nondigits[1:])
        plain &= nondigits[stop] == nondigits[start]
    value = chars[start].astype(np.int64) - ord("0")
    width[~plain] = 0
    for k in range(1, int(width.max(initial=0))):
        t = np.flatnonzero(width > k)
        value[t] = value[t] * 10 + (chars[start[t] + k] - ord("0"))
    if count_bad.any():
        symbols = value.take(first[:, None] + np.arange(users), mode="clip")
    else:
        symbols = value.reshape(n, users)

    int_bad = np.zeros(n, dtype=bool)
    if not plain.all():
        odd = np.zeros(len(stop) + 1, dtype=np.int64)
        np.cumsum(~plain, out=odd[1:])
        slow = ~count_bad & (odd[after] != odd[first])
        for i in np.flatnonzero(slow).tolist():
            try:
                row = [int(s) for s in keys[i].split(",")]
            except ValueError:
                int_bad[i] = True
            else:
                symbols[i] = [min(max(x, -1), 2 ** 62) for x in row]
    return symbols, count_bad, int_bad


def _probabilities(probs: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The float64 values of pmf probabilities and two flags per entry: not
    an int or float (a bool is neither), and an int that float() cannot
    hold.  The flagged entries' values are 0."""
    n = len(probs)
    kinds = set(map(type, probs))
    if kinds == {float}:
        none = np.zeros(n, dtype=bool)
        return np.array(probs, dtype=np.float64), none, none
    numbers = [k for k in kinds
               if issubclass(k, (int, float)) and not issubclass(k, bool)]
    # Types compare by identity, as numpy reads some type objects as arrays.
    kind = np.fromiter(map(id, map(type, probs)), dtype=np.uint64, count=n)
    number = np.isin(kind, [id(k) for k in numbers])
    whole = np.isin(kind, [id(k) for k in numbers if issubclass(k, int)])
    cells = np.fromiter(probs, dtype=object, count=n)
    overflow = np.zeros(n, dtype=bool)
    overflow[whole] = np.abs(cells[whole]) >= _FLOAT_EDGE
    fits = number & ~overflow
    values = np.zeros(n, dtype=np.float64)
    values[fits] = cells[fits].astype(np.float64)
    return values, ~number, overflow


def _key_error(mapping: str, key: str, what: str) -> ValidationError:
    return ValidationError(f"{mapping}[{key!r}]: {what}")


def _parse_table(data: dict, where: str) -> TableSource:
    m = _int_field(data, "m", where, minimum=1)
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
        raw_w = data["weights"]
        if not isinstance(raw_w, list) or len(raw_w) != source.m:
            raise ValidationError(
                f"{where}.weights: expected {source.m} entries")
        weights = tuple(parse_value(w, f"{where}.weights[{i}]")
                        for i, w in enumerate(raw_w))
        for i, w in enumerate(weights):
            if w < 0:
                raise ValidationError(f"{where}.weights[{i}]: negative weight {w}")

    n = data.get("n", 1)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"{where}.n: expected a positive integer")
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"{where}.seed: expected a nonnegative integer")
    return ProblemDocument(source=source, weights=weights, n=n, seed=seed,
                           sha256=sha256)


def _load_json(path: str) -> tuple[Any, str]:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}")
    try:
        return json.loads(blob.decode("utf-8")), hashlib.sha256(blob).hexdigest()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8 ({exc})")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}: {exc.msg}")


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
