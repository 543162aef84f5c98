"""Exact Bernoulli numbers under the convention B_1 = -1/2.

Two independent O(n^2) algorithms are provided, both in integers with no
intermediate rational reduction.  The default is the Seidel/tangent-number
recurrence; the Akiyama-Tanigawa recurrence, run on a row scaled by
lcm(1..N+1), exists as a genuinely different code path whose agreement with
the default is a strong cross-check.  Tables carry their convention and
provenance explicitly, can be persisted to a line-based text cache, and are
validated against all structural invariants whenever they are built or
loaded (a load validates every entry it returns): the sign pattern, the von
Staudt-Clausen denominator law, and its integrality form B_2k + sum 1/p in
Z, checked as the equivalent congruence N + D/p = 0 (mod p) for each prime
p of the squarefree denominator D of B_2k = N/D.  One sieve yields the
primes of every denominator in a table.
"""

from __future__ import annotations

import math
import os
import re
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .exact_core import decimal_to_int, int_to_decimal, primes_up_to

__all__ = [
    "ALGORITHMS",
    "BernoulliTable",
    "CONVENTION",
    "CacheError",
    "CacheFormatError",
    "CacheMissingError",
    "CachePathError",
    "CacheVersionError",
    "CapacityError",
    "TableInvariantError",
    "bernoulli_table",
    "load_table",
    "obtain_table",
    "persist_table",
    "tangent_numbers",
    "von_staudt_clausen_denominator",
    "von_staudt_clausen_primes",
]

# Fixed by the generating function z/(e^z - 1); the other common convention
# flips the sign of B_1, so the marker is recorded everywhere a table goes.
CONVENTION = "minus-half"

ALGORITHMS = ("seidel", "akiyama-tanigawa")

_HEADER_MAGIC = "BERN"
_HEADER_VERSION = "v1"


class CapacityError(ValueError):
    """A table is too small for the request, or a build exceeds resources."""


class CacheError(Exception):
    """Base class for table cache failures."""


class CacheMissingError(CacheError):
    """Cache file does not exist."""


class CachePathError(CacheError):
    """Cache path names something other than a regular file, such as a directory."""


class CacheFormatError(CacheError):
    """Cache file is malformed (bad header, bad line, duplicates, empty)."""


class CacheVersionError(CacheError):
    """Cache file declares an unsupported format version."""


class TableInvariantError(CacheError):
    """Table values violate a structural invariant."""


def tangent_numbers(count: int) -> list[int]:
    """First `count` tangent numbers T_1, T_2, ... (1, 2, 16, 272, ...).

    In-place Seidel/boustrophedon recurrence; integers throughout.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    t = [0] * (count + 1)
    if count >= 1:
        t[1] = 1
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def _seidel_values(max_index: int) -> list[Fraction]:
    # B_{2k} = (-1)^(k-1) * 2k * T_k / (4^k (4^k - 1)); conversion from the
    # integer tangent numbers happens only here, at the very end.
    values = [Fraction(0)] * (max_index + 1)
    values[0] = Fraction(1)
    if max_index >= 1:
        values[1] = Fraction(-1, 2)
    tang = tangent_numbers(max_index // 2)
    for k in range(1, max_index // 2 + 1):
        four_k = 1 << (2 * k)
        sign = 1 if k % 2 == 1 else -1
        values[2 * k] = Fraction(sign * 2 * k * tang[k - 1], four_k * (four_k - 1))
    return values


def _akiyama_tanigawa_values(max_index: int) -> list[Fraction]:
    # The triangular recurrence on the rationals 1/(m+1), run on the row
    # scaled by L = lcm(1..max_index+1): every entry stays an integer, and
    # B_m = row[0] / L.  It yields the B_1 = +1/2 convention; even indices
    # agree between conventions, so only index 1 needs flipping.
    scale = math.lcm(*range(1, max_index + 2))
    row = [0] * (max_index + 1)
    values: list[Fraction] = []
    for m in range(max_index + 1):
        row[m] = scale // (m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        values.append(Fraction(row[0], scale))
    if max_index >= 1:
        values[1] = Fraction(-1, 2)
    return values


def _von_staudt_clausen_steps(k_max: int) -> list[tuple[int, int]]:
    """(p, step) for each prime p <= 2 k_max + 1, increasing.

    The von Staudt-Clausen rule: (p - 1) | 2k exactly when k is a multiple
    of `step`, which is 1 for p = 2 and 3 and (p - 1)/2 for odd p >= 5.  No
    prime above 2k + 1 can qualify, so one sieve serves every k <= k_max.
    """
    return [(p, max((p - 1) // 2, 1)) for p in primes_up_to(2 * k_max + 1)]


def _von_staudt_clausen_prime_lists(k_max: int) -> list[list[int]]:
    # Entry k lists von_staudt_clausen_primes(k) for every k <= k_max at once.
    lists: list[list[int]] = [[] for _ in range(k_max + 1)]
    for p, step in _von_staudt_clausen_steps(k_max):
        for k in range(step, k_max + 1, step):
            lists[k].append(p)
    return lists


def von_staudt_clausen_primes(k: int) -> tuple[int, ...]:
    """Primes p with (p - 1) dividing 2k, increasing."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return tuple(p for p, step in _von_staudt_clausen_steps(k) if k % step == 0)


def von_staudt_clausen_denominator(k: int) -> int:
    """denominator(B_2k) = product of primes p with (p - 1) | 2k."""
    return math.prod(von_staudt_clausen_primes(k))


@dataclass(frozen=True)
class BernoulliTable:
    """Immutable table of exact B_0 .. B_max_index with provenance.

    Construction validates every invariant, so a table object that exists is
    known-good regardless of where its values came from.
    """

    max_index: int
    values: tuple[Fraction, ...]
    algorithm: str
    convention: str = field(default=CONVENTION)
    # zeta(1-2k) values and products formed from this table so far, kept and
    # extended by `zeta_special`; outside the table's identity, repr and cache.
    _zeta_memo: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        _validate_table(self)

    def bernoulli(self, n: int) -> Fraction:
        """B_n; raises CapacityError beyond the table."""
        if n < 0:
            raise ValueError(f"index must be nonnegative, got {n}")
        if n > self.max_index:
            raise CapacityError(
                f"table holds B_0..B_{self.max_index}, B_{n} requested"
            )
        return self.values[n]

    def even(self, k: int) -> Fraction:
        """B_{2k}."""
        return self.bernoulli(2 * k)


def _validate_table(table: BernoulliTable) -> None:
    if table.algorithm not in ALGORITHMS:
        raise TableInvariantError(f"unknown algorithm tag {table.algorithm!r}")
    if table.convention != CONVENTION:
        raise TableInvariantError(
            f"unsupported convention {table.convention!r}, expected {CONVENTION!r}"
        )
    if table.max_index < 0:
        raise TableInvariantError(f"negative max_index {table.max_index}")
    if len(table.values) != table.max_index + 1:
        raise TableInvariantError(
            f"expected {table.max_index + 1} values, found {len(table.values)}"
        )
    if table.values[0] != 1:
        raise TableInvariantError(f"B_0 must be 1, found {table.values[0]}")
    if table.max_index >= 1 and table.values[1] != Fraction(-1, 2):
        raise TableInvariantError(f"B_1 must be -1/2, found {table.values[1]}")
    for n in range(3, table.max_index + 1, 2):
        if table.values[n] != 0:
            raise TableInvariantError(f"B_{n} must be 0, found {table.values[n]}")
    prime_lists = _von_staudt_clausen_prime_lists(table.max_index // 2)
    for k in range(1, table.max_index // 2 + 1):
        b = table.values[2 * k]
        primes = prime_lists[k]
        numerator, denominator = b.numerator, math.prod(primes)
        if b.denominator != denominator:
            raise TableInvariantError(
                f"denominator of B_{2 * k} violates the von Staudt-Clausen law: "
                f"found {b.denominator}, expected {denominator}"
            )
        # Full von Staudt-Clausen: B_2k + sum of 1/p must be an integer.
        # Strictly stronger than the denominator law (catches numerator
        # corruption that happens to preserve the reduced denominator).  As
        # the denominator D is squarefree, it holds exactly when p divides
        # N + D/p for each p | D: every other D/q is a multiple of p.  N is
        # reduced modulo D once, which leaves it the same modulo each p.
        residue = numerator % denominator
        if any((residue + denominator // p) % p for p in primes):
            raise TableInvariantError(
                f"B_{2 * k} + sum(1/p) is not an integer; numerator corrupt"
            )
        if (numerator > 0) != (k % 2 == 1) or numerator == 0:
            raise TableInvariantError(f"sign of B_{2 * k} is wrong: {b}")


def bernoulli_table(max_index: int, algorithm: str = "seidel") -> BernoulliTable:
    """Exact table of B_0..B_max_index.

    `seidel` runs the integer tangent-number recurrence and converts once at
    the end; `akiyama-tanigawa` runs the triangular recurrence on 1/(m+1)
    scaled to integers by lcm(1..max_index+1), with one division per value.
    Both are quadratic in max_index.
    """
    if max_index < 0:
        raise ValueError(f"max_index must be nonnegative, got {max_index}")
    if algorithm == "seidel":
        build = _seidel_values
    elif algorithm == "akiyama-tanigawa":
        build = _akiyama_tanigawa_values
    else:
        raise ValueError(
            f"algorithm must be 'seidel' or 'akiyama-tanigawa', got {algorithm!r}"
        )
    try:
        values = build(max_index)
    except MemoryError as exc:
        raise CapacityError(f"table build for max_index={max_index} exhausted memory") from exc
    return BernoulliTable(max_index=max_index, values=tuple(values), algorithm=algorithm)


def _header_line(table: BernoulliTable) -> str:
    return (
        f"{_HEADER_MAGIC} {_HEADER_VERSION} convention={table.convention} "
        f"algorithm={table.algorithm} max={table.max_index}"
    )


def persist_table(table: BernoulliTable, location: str | os.PathLike) -> None:
    """Write the table to `location` atomically (temp file, then rename).

    Format: one header line, then `<n> <numerator>/<denominator>` per entry
    in decimal; odd zero entries above index 1 are omitted.
    """
    path = Path(location)
    lines = [_header_line(table)]
    for n in range(table.max_index + 1):
        if n >= 3 and n % 2 == 1:
            continue
        v = table.values[n]
        lines.append(f"{n} {int_to_decimal(v.numerator)}/{int_to_decimal(v.denominator)}")
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _parse_header(line: str) -> tuple[str, str, int]:
    tokens = line.split()
    if len(tokens) != 5 or tokens[0] != _HEADER_MAGIC:
        raise CacheFormatError(f"bad cache header: {line!r}")
    if tokens[1] != _HEADER_VERSION:
        raise CacheVersionError(
            f"unsupported cache version {tokens[1]!r}, expected {_HEADER_VERSION!r}"
        )
    fields = {}
    for token in tokens[2:]:
        key, sep, value = token.partition("=")
        if not sep:
            raise CacheFormatError(f"bad header field {token!r}")
        fields[key] = value
    if set(fields) != {"convention", "algorithm", "max"}:
        raise CacheFormatError(f"bad header fields in {line!r}")
    if fields["convention"] != CONVENTION:
        raise CacheFormatError(
            f"unsupported convention {fields['convention']!r} in cache header"
        )
    if fields["algorithm"] not in ALGORITHMS:
        raise CacheFormatError(f"unknown algorithm {fields['algorithm']!r} in cache header")
    try:
        max_index = int(fields["max"])
    except ValueError as exc:
        raise CacheFormatError(f"bad max field in {line!r}") from exc
    if max_index < 0:
        raise CacheFormatError(f"negative max in {line!r}")
    return fields["convention"], fields["algorithm"], max_index


# The cache is read as bytes but split and tokenised as its ASCII text
# would be: str.splitlines ends a line at \r, \v, \f and \x1c-\x1e as at
# \n (a \r\n pair then leaves an empty line, dropped as every blank line
# is), and str whitespace also takes in \x1c-\x1f.
_STR_LINE_BREAKS = b"\r\x0b\x0c\x1c\x1d\x1e"
_LINE_BREAKS = bytes.maketrans(_STR_LINE_BREAKS, b"\n" * len(_STR_LINE_BREAKS))
# The first token of a line, its index on an entry line, read without
# copying the value, which can run to thousands of digits; no match on a
# blank line.
_FIRST_TOKEN = re.compile(rb"[\s\x1c-\x1f]*([^\s\x1c-\x1f]+)")


def _entry_index(token: bytes, line: bytes, max_index: int) -> int:
    try:
        n = int(token)
    except ValueError as exc:
        raise CacheFormatError(f"malformed cache line: {line.decode()!r}") from exc
    if n < 0 or n > max_index:
        raise CacheFormatError(f"index {n} outside table range 0..{max_index}")
    return n


def _parse_value(line: str) -> Fraction:
    tokens = line.split()
    if len(tokens) != 2:
        raise CacheFormatError(f"malformed cache line: {line!r}")
    num_str, sep, den_str = tokens[1].partition("/")
    if not sep:
        raise CacheFormatError(f"malformed value in cache line: {line!r}")
    try:
        num = decimal_to_int(num_str)
        den = decimal_to_int(den_str)
    except ValueError as exc:
        raise CacheFormatError(f"malformed cache line: {line!r}") from exc
    if den < 1:
        raise CacheFormatError(f"nonpositive denominator in cache line: {line!r}")
    return Fraction(num, den)


def load_table(location: str | os.PathLike, through: int | None = None) -> BernoulliTable:
    """Load a persisted table and revalidate every entry it returns.

    Cached big numbers are a silent-corruption risk, so nothing in the file
    is trusted: the loaded values must pass the same checks a freshly built
    table does (the von Staudt-Clausen law pins every denominator, and the
    integrality check, in its congruence form N + D/p = 0 mod p for each
    prime p of the denominator D, pins every numerator N modulo those
    primes).  A path naming anything but a regular file is a CachePathError;
    a file that is not ASCII, or whose header declares more than twice as
    many entries as it has lines, is a CacheFormatError.

    With `through` below the header's max, the result is the table of
    B_0..B_through: every line's index is still read and checked, but only
    the values of the entries through B_through are parsed and validated,
    so corruption above it is left to a load that reaches it.  Without
    `through`, or with one at or past the max, the whole file is loaded.
    """
    if through is not None and through < 0:
        raise ValueError(f"through must be nonnegative, got {through}")
    path = Path(location)
    if not path.exists():
        raise CacheMissingError(f"no cache file at {path}")
    if not path.is_file():
        raise CachePathError(f"cache path {path} is not a regular file")
    data = path.read_bytes()
    if not data.isascii():
        try:
            data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise CacheFormatError(f"cache file at {path} is not ASCII: {exc}") from exc
    if any(byte in data for byte in _STR_LINE_BREAKS):
        data = data.translate(_LINE_BREAKS)
    lines = [
        (token[1], line) for line in data.split(b"\n") if (token := _FIRST_TOKEN.match(line))
    ]
    if not lines:
        raise CacheFormatError(f"empty cache file at {path}")
    convention, algorithm, max_index = _parse_header(lines[0][1].decode())
    # A valid file through B_max has at least max / 2 entry lines (only odd
    # zeros above index 1 are left out): a larger max is refused before a
    # list that long is allocated.
    if max_index > 2 * (len(lines) - 1):
        raise CacheFormatError(
            f"header declares max={max_index} but the file has only "
            f"{len(lines) - 1} entry lines"
        )
    last = max_index if through is None else min(through, max_index)
    values = [Fraction(0)] * (last + 1)
    seen: set[int] = set()
    for token, line in lines[1:]:
        n = _entry_index(token, line, max_index)
        if n in seen:
            raise CacheFormatError(f"duplicate entry for index {n}")
        seen.add(n)
        if n <= last:
            values[n] = _parse_value(line.decode())
    return BernoulliTable(
        max_index=last,
        values=tuple(values),
        algorithm=algorithm,
        convention=convention,
    )


def obtain_table(
    required: int, cache: str | os.PathLike | None, algorithm: str = "seidel"
) -> BernoulliTable:
    """The table of B_0..B_required, loaded from `cache` if it holds one.

    Any cached algorithm serves `seidel`; others need the same tag.  A cache
    through B_required or further is read through B_required only, and
    every value returned is validated.  Failing that, the table is built
    and, given a cache path, persisted there, unless the cache already
    holds a table at least as large (of another algorithm).
    """
    if cache is None:
        return bernoulli_table(required, algorithm)
    path = Path(cache)
    cached = load_table(path, through=required) if path.exists() else None
    large_enough = cached is not None and cached.max_index == required
    if large_enough and algorithm in ("seidel", cached.algorithm):
        return cached
    table = bernoulli_table(required, algorithm)
    if not large_enough:
        persist_table(table, path)
    return table
