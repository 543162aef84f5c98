"""Exact Bernoulli numbers under the convention B_1 = -1/2.

One O(n^2) algorithm builds them, in integers with no intermediate rational
reduction: the Seidel/tangent-number triangle of Brent and Harvey, with one
conversion to rationals at the end.  Tables carry their convention
explicitly, can be persisted to a line-based text cache, and are validated
against all structural invariants whenever they are built or loaded (a load
validates every entry it returns): the sign pattern, the von Staudt-Clausen
denominator law, and its integrality form B_2k + sum 1/p in Z, checked as
the equivalent congruence N + D/p = 0 (mod p) for each prime p of the
squarefree denominator D of B_2k = N/D.  One sieve yields the primes of
every denominator in a table.  A single number, B_n, is read from a cache by
`obtain_bernoulli`, which parses that entry alone and applies the same
per-entry checks to it.  A cache is read only in the one layout
`persist_table` writes: every read checks that the file is ASCII, that its
header is the exact header line, and that each line carries the index its
position gives; anything else is refused, and a refused cache is never
written over.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

from .exact_core import _NATURAL_DIGITS, _Record, decimal_to_int, int_to_decimal, primes_up_to

__all__ = [
    "BernoulliTable",
    "CONVENTION",
    "CacheError",
    "CacheFormatError",
    "CachePathError",
    "CapacityError",
    "TableInvariantError",
    "bernoulli_table",
    "load_table",
    "obtain_bernoulli",
    "obtain_table",
    "persist_table",
    "tangent_numbers",
    "von_staudt_clausen_primes",
]

# Fixed by the generating function z/(e^z - 1); the other common convention
# flips the sign of B_1, so the marker is recorded everywhere a table goes.
CONVENTION = "minus-half"


class CapacityError(ValueError):
    """A table is too small for the request, or a build exceeds resources."""


class CacheError(Exception):
    """Base class for table cache failures."""


class CachePathError(CacheError):
    """Cache path names no file, or something other than a regular file, such
    as a directory, or the operating system fails to read or write it (a
    missing parent directory, no permission, a full disk)."""


class CacheFormatError(CacheError):
    """Cache file is in any layout but the one `persist_table` writes."""


class TableInvariantError(CacheError):
    """Table values violate a structural invariant."""


def tangent_numbers(count: int) -> list[int]:
    """First `count` tangent numbers T_1, T_2, ... (1, 2, 16, 272, ...).

    The Seidel triangle of Brent and Harvey, t_1[j] = (j-1)! and
    t_k[j] = (j-k) t_k[j-1] + (j-k+2) t_{k-1}[j] for j >= k, gives
    T_k = t_k[k].  Here each entry is divided by a factorial: with i = j - k,
    s_k[j] = t_k[j] / i!, so s_k[j] * (j-k)! = t_k[j] and every s is an
    integer.  Then s_1[j] = 1 and s_k[j] = s_k[j-1] + (i+1)(i+2) s_{k-1}[j]:
    each pass is one running sum of the weighted entries of the pass before,
    and T_k = s_k[k] is its first entry.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    weights = [(i + 1) * (i + 2) for i in range(count - 1)]
    row = [1] * count
    tangents: list[int] = []
    while row:
        tangents.append(row[0])
        row = list(itertools.accumulate(map(operator.mul, weights, row[1:])))
    return tangents


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


class BernoulliTable(_Record):
    """Immutable table of exact B_0 .. B_max_index.

    Construction validates every invariant, so a table object that exists is
    known-good regardless of where its values came from.
    """

    _fields = ("max_index", "values", "convention")
    # _zeta_memo: zeta(1-2k) values and products formed from this table so
    # far, kept and extended by `zeta_special`; not a field, so outside the
    # table's identity, repr and cache.
    __slots__ = _fields + ("_zeta_memo",)

    def __init__(
        self,
        max_index: int,
        values: tuple[Fraction, ...],
        convention: str = CONVENTION,
    ) -> None:
        object.__setattr__(self, "max_index", max_index)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "convention", convention)
        object.__setattr__(self, "_zeta_memo", None)
        self.__post_init__()

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
    top = table.max_index
    prime_lists = _von_staudt_clausen_prime_lists(top // 2)
    # B_0, B_1 and the odd zeros first, then the even entries upward: the
    # first failure reported is the first in that order.
    for n in itertools.chain(range(min(top, 1) + 1), range(3, top + 1, 2), range(2, top + 1, 2)):
        _check_entry(n, table.values[n], prime_lists[n // 2])


def _check_entry(n: int, b: Fraction, primes: Sequence[int]) -> None:
    """Raise TableInvariantError unless `b` passes every check on B_n.

    `primes` are von_staudt_clausen_primes(n // 2), read for even n >= 2.
    """
    if n == 0:
        if b != 1:
            raise TableInvariantError(f"B_0 must be 1, found {b}")
    elif n == 1:
        if b != Fraction(-1, 2):
            raise TableInvariantError(f"B_1 must be -1/2, found {b}")
    elif n % 2:
        if b != 0:
            raise TableInvariantError(f"B_{n} must be 0, found {b}")
    else:
        numerator, denominator = b.numerator, math.prod(primes)
        if b.denominator != denominator:
            raise TableInvariantError(
                f"denominator of B_{n} violates the von Staudt-Clausen law: "
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
                f"B_{n} + sum(1/p) is not an integer; numerator corrupt"
            )
        if (numerator > 0) != (n % 4 == 2) or numerator == 0:
            raise TableInvariantError(f"sign of B_{n} is wrong: {b}")


def bernoulli_table(max_index: int) -> BernoulliTable:
    """Exact table of B_0..B_max_index, by the integer tangent-number
    recurrence, converted once at the end; quadratic in max_index."""
    if max_index < 0:
        raise ValueError(f"max_index must be nonnegative, got {max_index}")
    try:
        values = _seidel_values(max_index)
    except MemoryError as exc:
        raise CapacityError(f"table build for max_index={max_index} exhausted memory") from exc
    return BernoulliTable(max_index=max_index, values=tuple(values))


def _entry_indices(max_index: int) -> Iterator[int]:
    """The index of each entry line of a cache through B_max_index, in order.

    0, 1, 2, 4, 6, ...: every odd entry past B_1 is zero and has no line.
    """
    return itertools.chain(range(min(max_index, 2) + 1), range(4, max_index + 1, 2))


# A cache is this header, ending in the table's max, then the line
# `<n> <numerator>/<denominator>` for each n of `_entry_indices(max)`, each
# number in decimal, each line ending in \n.  The reader accepts no other
# layout: the header is matched whole, and each line must begin with the
# index its position gives.
_HEADER = f"BERN v1 convention={CONVENTION} algorithm=seidel max="
_HEADER_LINE = re.compile(rb"%s(%s)\n" % (re.escape(_HEADER).encode(), _NATURAL_DIGITS.encode()))


def persist_table(table: BernoulliTable, location: str | os.PathLike) -> None:
    """Write the table to `location` atomically (temp file, then rename), in
    the layout stated at `_HEADER`.

    An operating-system failure to create, write or rename the file is a
    CachePathError, and leaves no temp file behind.
    """
    path = Path(location)
    lines = [f"{_HEADER}{table.max_index}"]
    for n in _entry_indices(table.max_index):
        v = table.values[n]
        lines.append(f"{n} {int_to_decimal(v.numerator)}/{int_to_decimal(v.denominator)}")
    try:
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent or Path("."), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="ascii") as handle:
                handle.write("\n".join(lines) + "\n")
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
    except OSError as exc:
        raise CachePathError(f"cannot write cache file {path}: {exc.strerror or exc}") from exc


def _read_cache(path: Path) -> tuple[int, bytes, dict[int, tuple[int, int]]]:
    """The header's max of the cache at `path`, its bytes, and the span of each entry's value.

    The file is read once, and its bytes, its header and every line's index
    are checked here, before any value is parsed: a fault in the layout is
    reported ahead of one in a value, wherever the two stand in the file.
    The lines are walked in place, in `_entry_indices` order, so a header
    whose max runs past the file's lines is refused at the first line that
    is missing.
    """
    if not path.exists():
        raise CachePathError(f"no cache file at {path}")
    if not path.is_file():
        raise CachePathError(f"cache path {path} is not a regular file")
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CachePathError(f"cannot read cache file {path}: {exc.strerror or exc}") from exc
    if not data.isascii():
        try:
            data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise CacheFormatError(f"cache file at {path} is not ASCII: {exc}") from exc
    header = _HEADER_LINE.match(data)
    if header is None:
        first_line = data.partition(b"\n")[0].decode()
        raise CacheFormatError(f"bad cache header: {first_line!r}")
    max_text = header[1].decode()
    # A file has fewer entry lines than bytes, so a max with more digits than
    # the file's length has runs past its lines, and is not worth parsing:
    # the walk, taken as far as the length instead, stops at the same line.
    fits = len(max_text) <= len(str(len(data)))
    max_index = decimal_to_int(max_text) if fits else len(data)
    spans: dict[int, tuple[int, int]] = {}
    start = header.end()
    for n in _entry_indices(max_index):
        end = data.find(b"\n", start)
        if end < 0:
            raise CacheFormatError(f"cache through B_{max_text} has no whole line for B_{n}")
        index = b"%d " % n
        if not data.startswith(index, start, end):
            found = data[start:end].partition(b" ")[0].decode()
            raise CacheFormatError(f"expected the line for B_{n}, found one starting {found!r}")
        spans[n] = start + len(index), end
        start = end + 1
    if start < len(data):
        raise CacheFormatError(f"cache through B_{max_text} has bytes after its last line")
    return max_index, data, spans


def _parse_value(n: int, data: bytes, spans: dict[int, tuple[int, int]]) -> Fraction:
    # The odd entries past B_1 have no line: each reads as 0.
    if n not in spans:
        return Fraction(0)
    start, end = spans[n]
    text = data[start:end].decode()
    # The value is `<numerator>/<denominator>`, each by the strict decimal rule.
    num_text, _, den_text = text.partition("/")
    try:
        numerator, denominator = decimal_to_int(num_text), decimal_to_int(den_text)
    except ValueError as exc:
        raise CacheFormatError(f"malformed value of B_{n} in cache: {text!r}") from exc
    if denominator < 1:
        raise CacheFormatError(f"nonpositive denominator of B_{n} in cache: {text!r}")
    return Fraction(numerator, denominator)


def load_table(location: str | os.PathLike, through: int | None = None) -> BernoulliTable:
    """Load a persisted table and revalidate every entry it returns.

    Cached big numbers are a silent-corruption risk, so nothing in the file
    is trusted: the loaded values must pass the same checks a freshly built
    table does (the von Staudt-Clausen law pins every denominator, and the
    integrality check, in its congruence form N + D/p = 0 mod p for each
    prime p of the denominator D, pins every numerator N modulo those
    primes).  A path naming anything but a regular file, or a file the
    operating system fails to read, is a CachePathError; a file in any
    layout but the one `persist_table` writes is a CacheFormatError.

    With `through` below the header's max, the result is the table of
    B_0..B_through: every line's index is still read and checked, but only
    the values of the entries through B_through are parsed and validated,
    so corruption above it is left to a load that reaches it.  Without
    `through`, or with one at or past the max, the whole file is loaded.
    """
    if through is not None and through < 0:
        raise ValueError(f"through must be nonnegative, got {through}")
    max_index, data, spans = _read_cache(Path(location))
    last = max_index if through is None else min(through, max_index)
    return BernoulliTable(
        max_index=last, values=tuple(_parse_value(n, data, spans) for n in range(last + 1))
    )


def obtain_bernoulli(n: int, cache: str | os.PathLike | None) -> Fraction:
    """B_n, read from `cache` alone when it holds a table through B_n.

    That file is read and checked as `load_table` checks it (its bytes, its
    header and every line's index), but only the value of
    B_n is parsed, and validated by the checks a table applies to that
    entry: corruption in other entries is left to the requests that read
    them.  Otherwise the value is `obtain_table(n, cache).values[n]`: the
    table is built, and persisted in place of a missing or smaller cache.
    """
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if cache is not None and Path(cache).exists():
        max_index, data, spans = _read_cache(Path(cache))
        if n <= max_index:
            value = _parse_value(n, data, spans)
            _check_entry(n, value, von_staudt_clausen_primes(n // 2) if n >= 2 else ())
            return value
    return obtain_table(n, cache).values[n]


def obtain_table(required: int, cache: str | os.PathLike | None) -> BernoulliTable:
    """The table of B_0..B_required, loaded from `cache` if it holds one.

    A cache through B_required or further is read through B_required only,
    and every value returned is validated.  Failing that, the table is built
    and, given a cache path, persisted there.
    """
    if cache is None:
        return bernoulli_table(required)
    path = Path(cache)
    if path.exists():
        cached = load_table(path, through=required)
        if cached.max_index == required:
            return cached
    table = bernoulli_table(required)
    persist_table(table, path)
    return table
