import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from torelli_euler import bernoulli
from torelli_euler.bernoulli import (
    BernoulliTable,
    CacheFormatError,
    CachePathError,
    CapacityError,
    TableInvariantError,
    bernoulli_table,
    load_table,
    obtain_bernoulli,
    obtain_table,
    persist_table,
    tangent_numbers,
    von_staudt_clausen_primes,
    _von_staudt_clausen_prime_lists,
)
from torelli_euler.exact_core import is_probable_prime


def _binomial_recurrence_bernoulli(limit):
    # Independent definitional oracle: sum_{j<=n} C(n+1, j) B_j = [n == 0].
    values = [Fraction(1)]
    for n in range(1, limit + 1):
        total = sum(math.comb(n + 1, j) * values[j] for j in range(n))
        values.append(Fraction(-total, n + 1))
    return values


def _in_place_tangent_numbers(count):
    # Reference: the unscaled in-place Seidel/boustrophedon loop of Brent and
    # Harvey, each entry starting at (j-1)!.
    t = [0] * (count + 1)
    if count >= 1:
        t[1] = 1
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def _akiyama_tanigawa_values(max_index):
    # Reference: the Akiyama-Tanigawa recurrence (Kaneko, J. Integer Seq. 3
    # (2000)), a triangle on the rationals 1/(m+1) that shares no step with
    # the tangent numbers, run on the row scaled by L = lcm(1..max_index+1)
    # so that every entry stays an integer, and B_m = row[0] / L.  It yields
    # B_1 = +1/2; even indices agree between conventions, so only index 1
    # is flipped.
    scale = math.lcm(*range(1, max_index + 2))
    row = [0] * (max_index + 1)
    values = []
    for m in range(max_index + 1):
        row[m] = scale // (m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        values.append(Fraction(row[0], scale))
    if max_index >= 1:
        values[1] = Fraction(-1, 2)
    return tuple(values)


# The table's values, and the reference recurrence: two independent builds.
_BUILDS = {
    "seidel": lambda max_index: bernoulli_table(max_index).values,
    "akiyama-tanigawa": _akiyama_tanigawa_values,
}


def test_tangent_numbers_known_values():
    assert tangent_numbers(7) == [1, 2, 16, 272, 7936, 353792, 22368256]
    assert tangent_numbers(0) == []


@pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 300, 600])
def test_tangent_numbers_match_the_in_place_loop(count):
    assert tangent_numbers(count) == _in_place_tangent_numbers(count)


def test_tangent_numbers_refuse_a_negative_count():
    with pytest.raises(ValueError, match="count must be nonnegative, got -1"):
        tangent_numbers(-1)


@pytest.mark.parametrize("algorithm", list(_BUILDS))
def test_tiny_tables(algorithm):
    assert _BUILDS[algorithm](0) == (Fraction(1),)
    assert _BUILDS[algorithm](1) == (Fraction(1), Fraction(-1, 2))


@pytest.mark.parametrize("algorithm", list(_BUILDS))
def test_tables_match_definitional_recurrence(algorithm):
    assert list(_BUILDS[algorithm](60)) == _binomial_recurrence_bernoulli(60)


def test_fixed_values(table60):
    assert table60.bernoulli(0) == 1
    assert table60.bernoulli(1) == Fraction(-1, 2)
    assert table60.bernoulli(2) == Fraction(1, 6)
    assert table60.bernoulli(3) == 0
    assert table60.bernoulli(12) == Fraction(-691, 2730)
    assert table60.bernoulli(16) == Fraction(-3617, 510)
    assert table60.bernoulli(12).numerator == -691
    assert table60.bernoulli(16).numerator == -3617


def test_table_to_600_matches_the_akiyama_tanigawa_reference(table600):
    # Entry by entry, over the range of the table the verification suite reads.
    assert table600.values == _akiyama_tanigawa_values(600)


def test_table_to_600_matches_sympy(table600):
    # The table the verification suite's Bernoulli claims rest on, against
    # an independent implementation.  Even indices only: sympy takes
    # B_1 = +1/2, the table -1/2.
    sympy = pytest.importorskip("sympy")
    for n in range(0, 601, 2):
        b = sympy.bernoulli(n)
        assert table600.bernoulli(n) == Fraction(int(b.p), int(b.q)), n


def test_sign_alternation_and_odd_zeros(table60):
    for k in range(1, 31):
        assert (table60.even(k) > 0) == (k % 2 == 1)
    for n in range(3, 61, 2):
        assert table60.bernoulli(n) == 0


@pytest.mark.parametrize(
    "k,expected,primes",
    [(1, 6, (2, 3)), (6, 2730, (2, 3, 5, 7, 13)), (8, 510, (2, 3, 5, 17))],
)
def test_von_staudt_clausen_denominator(k, expected, primes):
    assert von_staudt_clausen_primes(k) == primes
    assert math.prod(von_staudt_clausen_primes(k)) == expected


def _reference_von_staudt_clausen_primes(k):
    # The divisor-and-Miller-Rabin search the sieve replaced.
    two_k = 2 * k
    divisors = set()
    d = 1
    while d * d <= two_k:
        if two_k % d == 0:
            divisors.add(d)
            divisors.add(two_k // d)
        d += 1
    return tuple(sorted(d + 1 for d in divisors if is_probable_prime(d + 1)))


def test_von_staudt_clausen_sieve_matches_divisor_search():
    lists = _von_staudt_clausen_prime_lists(1470)
    for k in range(1, 1471):
        reference = _reference_von_staudt_clausen_primes(k)
        assert von_staudt_clausen_primes(k) == tuple(lists[k]) == reference, k


def _reference_table_error(values):
    # The per-k checks as they read with Fraction sums, in their order:
    # the message the first failing check gives, or None.
    for k in range(1, (len(values) - 1) // 2 + 1):
        b = values[2 * k]
        primes = _reference_von_staudt_clausen_primes(k)
        if b.denominator != math.prod(primes):
            return (
                f"denominator of B_{2 * k} violates the von Staudt-Clausen law: "
                f"found {b.denominator}, expected {math.prod(primes)}"
            )
        if (b + sum(Fraction(1, p) for p in primes)).denominator != 1:
            return f"B_{2 * k} + sum(1/p) is not an integer; numerator corrupt"
        if (b > 0) != (k % 2 == 1) or b == 0:
            return f"sign of B_{2 * k} is wrong: {b}"
    return None


@pytest.fixture(scope="module")
def table1200():
    return bernoulli_table(1200)


def _flip_sign_keeping_integrality(b, k):
    # -(B + sum 1/p) - sum 1/p: the denominator and B + sum 1/p in Z both
    # survive, so only the sign check can see it.
    return -b - 2 * sum(Fraction(1, p) for p in _reference_von_staudt_clausen_primes(k))


@pytest.mark.parametrize("index", [1198, 1200])
@pytest.mark.parametrize(
    "tamper",
    [
        lambda b, k: Fraction(b.numerator, b.denominator + 1),
        lambda b, k: Fraction(b.numerator, 7 * b.denominator),
        lambda b, k: Fraction(b.numerator + 1, b.denominator),
        lambda b, k: Fraction(b.numerator - 1, b.denominator),
        # Moves the residue modulo 3 and no other, to a unit: denominator kept.
        lambda b, k: Fraction(b.numerator + 2 * (b.denominator // 3), b.denominator),
        lambda b, k: -b,
        _flip_sign_keeping_integrality,
    ],
    ids=[
        "denominator+1",
        "denominator*7",
        "numerator+1",
        "numerator-1",
        "numerator-mod-3",
        "negated",
        "sign-only",
    ],
)
def test_tampering_at_the_top_of_a_large_table(table1200, index, tamper):
    # The congruence checks reject what the Fraction sums rejected, with the
    # same message (a numerator +-1 may also change the reduced denominator).
    assert _reference_table_error(table1200.values) is None
    values = list(table1200.values)
    values[index] = tamper(values[index], index // 2)
    expected = _reference_table_error(values)
    assert expected is not None
    with pytest.raises(TableInvariantError) as info:
        BernoulliTable(max_index=1200, values=tuple(values))
    assert str(info.value) == expected


def test_von_staudt_clausen_law_and_integrality(table60):
    for k in range(1, 31):
        b = table60.even(k)
        primes = von_staudt_clausen_primes(k)
        assert b.denominator == math.prod(primes)
        assert (b + sum(Fraction(1, p) for p in primes)).denominator == 1


def test_accessor_capacity_and_validation_errors(table60):
    with pytest.raises(CapacityError):
        table60.bernoulli(61)
    with pytest.raises(ValueError):
        table60.bernoulli(-1)
    with pytest.raises(TypeError):  # one algorithm: the build takes no name
        bernoulli_table(10, "seidel")
    with pytest.raises(ValueError):
        bernoulli_table(-1)


def test_tampered_values_cannot_form_a_table(table60):
    bad = list(table60.values)
    bad[12] = Fraction(-690, 2730)
    with pytest.raises(TableInvariantError):
        BernoulliTable(max_index=60, values=tuple(bad))
    bad = list(table60.values)
    bad[12] = Fraction(-689, 2730)  # denominator law survives, integrality must not
    with pytest.raises(TableInvariantError):
        BernoulliTable(max_index=60, values=tuple(bad))


# --- cache --------------------------------------------------------------------


def test_persist_load_round_trip(tmp_path):
    table = bernoulli_table(100)
    path = tmp_path / "bern.cache"
    persist_table(table, path)
    assert load_table(path) == table


def test_written_header_is_the_v1_seidel_header(tmp_path):
    path = tmp_path / "bern.cache"
    persist_table(bernoulli_table(12), path)
    header = path.read_text().splitlines()[0]
    assert header == "BERN v1 convention=minus-half algorithm=seidel max=12"


def test_load_refuses_the_akiyama_tanigawa_tag(tmp_path):
    # No writer has produced the second tag the v1 format once had: the
    # reader takes the one header the writer writes, and leaves the file be.
    path = tmp_path / "bern.cache"
    persist_table(bernoulli_table(12), path)
    path.write_text(
        path.read_text().replace("algorithm=seidel", "algorithm=akiyama-tanigawa")
    )
    tagged = path.read_bytes()
    with pytest.raises(CacheFormatError, match="^bad cache header: "):
        load_table(path)
    with pytest.raises(CacheFormatError, match="^bad cache header: "):
        obtain_table(12, path)
    assert path.read_bytes() == tagged


def test_load_missing_file(tmp_path):
    path = tmp_path / "absent.cache"
    with pytest.raises(CachePathError, match=f"^no cache file at {re.escape(str(path))}$"):
        load_table(path)


def test_load_directory_is_a_cache_path_error(tmp_path):
    with pytest.raises(CachePathError, match="not a regular file"):
        load_table(tmp_path)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.cache"
    path.write_text("")
    with pytest.raises(CacheFormatError):
        load_table(path)


def test_load_version_mismatch(tmp_path):
    table = bernoulli_table(10)
    path = tmp_path / "bern.cache"
    persist_table(table, path)
    text = path.read_text().replace("BERN v1", "BERN v2")
    path.write_text(text)
    with pytest.raises(CacheFormatError, match="^bad cache header: 'BERN v2 "):
        load_table(path)


def test_load_rejects_unknown_algorithm_tag(tmp_path):
    # Only the tag the writer writes is read; "cache" names no algorithm.
    path = tmp_path / "bern.cache"
    persist_table(bernoulli_table(10), path)
    path.write_text(path.read_text().replace("algorithm=seidel", "algorithm=cache"))
    with pytest.raises(CacheFormatError):
        load_table(path)


@pytest.mark.parametrize(
    "mutation",
    [
        lambda text: text.replace("12 -691/2730", "12 690/2730"),
        lambda text: text.replace("12 -691/2730", "12 -690/2730"),
        lambda text: text.replace("16 -3617/510", "16 -3617/2730"),
    ],
)
def test_load_corrupted_entry_fails_invariants(tmp_path, mutation):
    table = bernoulli_table(20)
    path = tmp_path / "bern.cache"
    persist_table(table, path)
    path.write_text(mutation(path.read_text()))
    with pytest.raises(TableInvariantError):
        load_table(path)


@pytest.mark.parametrize(
    "line",
    [
        "12 banana", "12 1over2", "12 1/2 extra", "999 1/6", "12 1/0", "-1 1/6",
        pytest.param("1" * 5000 + " 1/6", id="5000-digit index"),
    ],
)
def test_load_malformed_lines(tmp_path, line):
    # Each line stands in place of the entry line of B_12.
    table = bernoulli_table(20)
    path = tmp_path / "bern.cache"
    persist_table(table, path)
    path.write_text(path.read_text().replace("\n12 -691/2730\n", f"\n{line}\n"))
    # As in a fresh interpreter, where int() refuses a text past 4300 digits.
    original = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        with pytest.raises(CacheFormatError):
            load_table(path)
    finally:
        sys.set_int_max_str_digits(original)


@pytest.mark.parametrize(
    "line",
    ["12 -691/+2730", "12 -0691/2730", "12 -691/02730", "12 -6_91/2730",
     "012 -691/2730", "+12 -691/2730", "1_2 -691/2730"],
)
def test_load_refuses_all_but_plain_digits(tmp_path, line):
    # Each line's tokens once read as the entry B_12 = -691/2730; only plain
    # digits, with no sign but a leading minus and no leading zero, are read.
    path = tmp_path / "bern.cache"
    persist_table(bernoulli_table(20), path)
    path.write_text(path.read_text().replace("12 -691/2730", line))
    with pytest.raises(CacheFormatError):
        load_table(path)


def test_load_duplicate_entry(tmp_path):
    table = bernoulli_table(20)
    path = tmp_path / "bern.cache"
    persist_table(table, path)
    path.write_text(path.read_text() + "2 1/6\n")
    with pytest.raises(CacheFormatError):
        load_table(path)


def test_persist_overwrites_atomically(tmp_path):
    path = tmp_path / "bern.cache"
    persist_table(bernoulli_table(10), path)
    persist_table(bernoulli_table(20), path)
    assert load_table(path).max_index == 20
    assert list(tmp_path.iterdir()) == [path]  # no stray temp files


def test_persist_into_a_missing_directory_is_a_cache_path_error(tmp_path):
    path = tmp_path / "absent" / "bern.cache"
    with pytest.raises(CachePathError, match=re.escape(f"cannot write cache file {path}: ")):
        persist_table(bernoulli_table(10), path)


def test_a_failed_rename_is_a_cache_path_error_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    (target / "inner").mkdir(parents=True)  # os.replace cannot put a file here
    with pytest.raises(CachePathError, match=re.escape(f"cannot write cache file {target}: ")):
        persist_table(bernoulli_table(10), target)
    assert list(tmp_path.iterdir()) == [target]


def test_a_failed_read_is_a_cache_path_error(tmp_path, monkeypatch):
    path = tmp_path / "bern.cache"
    persist_table(bernoulli_table(10), path)

    def denied(self):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_bytes", denied)
    message = f"cannot read cache file {path}: Permission denied"
    with pytest.raises(CachePathError, match=re.escape(message)):
        load_table(path)


def test_load_non_ascii_file_is_a_format_error(tmp_path):
    path = tmp_path / "bern.cache"
    persist_table(bernoulli_table(20), path)
    path.write_bytes(path.read_bytes().replace(b"12 -691/2730", b"12 -691/2730\xc3\xa9"))
    with pytest.raises(CacheFormatError, match="not ASCII"):
        load_table(path)


def test_load_refuses_a_max_past_twice_the_entry_lines(tmp_path):
    # A table through B_20 has 12 entry lines, B_21 being zero and lineless.
    # A header claiming more is refused at the first line missing, B_22,
    # before anything the size of its max is allocated, and a max of more
    # digits than the file has bytes is refused there unparsed.
    path = tmp_path / "bern.cache"
    persist_table(bernoulli_table(20), path)
    text = path.read_text()
    for declared in (22, 24, 25, 99999999999, "9" * 100_000):
        path.write_text(text.replace("max=20", f"max={declared}"))
        message = f"^cache through B_{declared} has no whole line for B_22$"
        with pytest.raises(CacheFormatError, match=message):
            load_table(path)
    path.write_text(text.replace("max=20", "max=21"))
    assert load_table(path) == bernoulli_table(21)


@pytest.mark.parametrize("declared", ["+20", "2_0", "020"])
def test_the_header_max_is_read_by_the_strict_decimal_rule(tmp_path, declared):
    # Each once read as max 20, by a bare int().
    path = tmp_path / "bern.cache"
    persist_table(bernoulli_table(20), path)
    path.write_text(path.read_text().replace("max=20", f"max={declared}"))
    message = f"^bad cache header: '.* max={re.escape(declared)}'$"
    for read in (
        lambda: load_table(path),
        lambda: load_table(path, through=10),
        lambda: obtain_bernoulli(12, path),
    ):
        with pytest.raises(CacheFormatError, match=message):
            read()


def test_every_small_valid_table_passes_the_line_count_check(tmp_path):
    # Every table the writer writes reads back through every reader.
    path = tmp_path / "bern.cache"
    for max_index in range(41):
        table = bernoulli_table(max_index)
        persist_table(table, path)
        written = path.read_bytes()
        assert load_table(path) == table
        for n in range(max_index + 1):
            assert load_table(path, through=n) == bernoulli_table(n), (max_index, n)
            assert obtain_table(n, path) == bernoulli_table(n), (max_index, n)
            assert obtain_bernoulli(n, path) == table.values[n], (max_index, n)
        assert path.read_bytes() == written


# --- prefix loads ---------------------------------------------------------------


def _persisted(table, path):
    persist_table(table, path)
    return path


def test_prefix_loads_equal_fresh_tables(tmp_path):
    path = _persisted(bernoulli_table(120), tmp_path / "bern.cache")
    original = path.read_bytes()
    for required in range(121):
        fresh = bernoulli_table(required)
        assert obtain_table(required, path) == fresh, required
        assert obtain_bernoulli(required, path) == fresh.values[required], required
    assert path.read_bytes() == original
    with pytest.raises(ValueError):
        load_table(path, through=-1)


def test_a_prefix_load_parses_only_the_entries_it_returns(table1200, tmp_path, monkeypatch):
    path = _persisted(table1200, tmp_path / "bern.cache")
    parsed = []

    def counting(text):
        parsed.append(text)
        return int(text)

    monkeypatch.setattr(bernoulli, "decimal_to_int", counting)
    assert obtain_table(12, path).values == table1200.values[:13]
    # The header's max, then the value of each entry returned.
    prefix = [table1200.values[n] for n in (0, 1, 2, 4, 6, 8, 10, 12)]
    assert parsed == ["1200"] + [str(part) for b in prefix for part in (b.numerator, b.denominator)]


def test_a_single_entry_read_checks_the_entry_as_a_table_does(tmp_path):
    # A value no table has fails the per-entry checks in a single read as in
    # a table load, with the same text; a written odd entry or a missing
    # even one is no value but a fault in the layout, for every read.
    path = _persisted(bernoulli_table(40), tmp_path / "bern.cache")
    written = path.read_text()
    path.write_text(written.replace("\n20 -174611/330\n", "\n20 -174607/330\n"))
    message = "B_20 + sum(1/p) is not an integer; numerator corrupt"
    with pytest.raises(TableInvariantError) as info:
        load_table(path)
    assert str(info.value) == message
    with pytest.raises(TableInvariantError) as info:
        obtain_bernoulli(20, path)
    assert str(info.value) == message
    assert obtain_bernoulli(12, path) == Fraction(-691, 2730)
    for text, n, found in (
        (written.replace("\n14 ", "\n13 1/2\n14 "), 14, "13"),
        (re.sub(r"\n20 [^\n]*", "", written), 20, "22"),
    ):
        message = f"expected the line for B_{n}, found one starting {found!r}"
        path.write_text(text)
        for read in (lambda: load_table(path), lambda: obtain_bernoulli(12, path)):
            with pytest.raises(CacheFormatError) as info:
                read()
            assert str(info.value) == message
    with pytest.raises(ValueError):
        obtain_bernoulli(-1, path)


def test_an_index_fault_is_reported_ahead_of_a_value_fault(tmp_path):
    # Every line's index is checked before any value is parsed: a malformed
    # B_4 and a duplicate index after the last line report the extra line,
    # as does a read that needs only the malformed entry.
    path = _persisted(bernoulli_table(40), tmp_path / "bern.cache")
    path.write_text(path.read_text().replace("\n4 -1/30\n", "\n4 -1/thirty\n") + "2 1/6\n")
    reads = (
        lambda: load_table(path),
        lambda: load_table(path, through=4),
        lambda: obtain_table(12, path),
        lambda: obtain_bernoulli(4, path),
    )
    for read in reads:
        with pytest.raises(CacheFormatError) as info:
            read()
        assert str(info.value) == "cache through B_40 has bytes after its last line"


def test_an_entry_left_out_is_a_format_error(tmp_path):
    # With B_20 left out, the line at its place is B_22's: every read is
    # refused, those of entries below B_20 and of odd entries too.
    path = _persisted(bernoulli_table(40), tmp_path / "bern.cache")
    path.write_text(re.sub(r"\n20 [^\n]*", "", path.read_text()))
    message = "expected the line for B_20, found one starting '22'"
    for read in (
        lambda: obtain_bernoulli(20, path),
        lambda: obtain_bernoulli(3, path),
        lambda: load_table(path),
        lambda: load_table(path, through=19),
        lambda: obtain_table(18, path),
    ):
        with pytest.raises(CacheFormatError, match=f"^{re.escape(message)}$"):
            read()


def _refused_by_every_read(path, max_index):
    written = path.read_bytes()
    for read in (
        lambda: load_table(path),
        lambda: load_table(path, through=2),
        lambda: obtain_table(2, path),
        lambda: obtain_table(max_index + 10, path),
        lambda: obtain_bernoulli(2, path),
        lambda: obtain_bernoulli(max_index + 10, path),
    ):
        with pytest.raises(CacheFormatError) as info:
            read()
        assert type(info.value) is CacheFormatError
    # A refused cache is never rebuilt over.
    assert path.read_bytes() == written


# --- the byte reader ------------------------------------------------------------


def test_other_line_ends_and_blank_lines_are_refused(tmp_path):
    # persist_table ends lines with \n only, and writes no blank line; the
    # line breaks str knows beyond bytes (\v, \f, \x1c-\x1e) and its extra
    # whitespace (\x1f) are no more read than \r.
    path = _persisted(bernoulli_table(40), tmp_path / "bern.cache")
    written = path.read_bytes()
    for edited in (
        written.replace(b"\n", b"\r\n"),
        written.replace(b"\n", b"\r"),
        written.replace(b"\n", b"\n  \n\t\n\n"),
        written.replace(b"\n", b"\x0b").replace(b"\x0b12 ", b"\x0c\x1f12\x1f "),
        written.replace(b"\n", b"\x1c \x1d\x1e\x1f"),
    ):
        path.write_bytes(edited)
        _refused_by_every_read(path, 40)


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text.replace("\n4 -1/30\n6 1/42\n", "\n6 1/42\n4 -1/30\n"),
        lambda text: text.replace("\n14 ", "\n13 0/1\n14 "),
        lambda text: text[:-1],
        lambda text: text + "garbage",
    ],
    ids=["out-of-order", "explicit-odd-zero", "no-final-newline", "bytes-after-the-last-entry"],
)
def test_only_the_written_layout_is_read(tmp_path, edit):
    path = _persisted(bernoulli_table(40), tmp_path / "bern.cache")
    text = path.read_text()
    path.write_text(edit(text))
    assert path.read_text() != text
    _refused_by_every_read(path, 40)


def test_non_ascii_past_the_prefix_is_reported_as_a_text_read_would(tmp_path):
    path = _persisted(bernoulli_table(100), tmp_path / "bern.cache")
    path.write_bytes(path.read_bytes().replace(b"\n80 ", b"\n80 \xe9"))
    with pytest.raises(UnicodeDecodeError) as decoding:
        path.read_text(encoding="ascii")
    with pytest.raises(CacheFormatError) as info:
        load_table(path, through=12)
    assert str(info.value) == f"cache file at {path} is not ASCII: {decoding.value}"


def _tamper_b80(path):
    # B_80's numerator plus one, written into a cache of B_0..B_100.
    table = bernoulli_table(100)
    persist_table(table, path)
    b = table.values[80]
    line = f"80 {b.numerator}/{b.denominator}"
    path.write_text(path.read_text().replace(line, f"80 {b.numerator + 1}/{b.denominator}"))
    values = list(table.values)
    values[80] = Fraction(b.numerator + 1, b.denominator)
    return values


def test_corruption_above_the_request_is_left_to_the_load_that_reaches_it(tmp_path):
    path = tmp_path / "bern.cache"
    values = _tamper_b80(path)
    tampered = path.read_bytes()
    assert obtain_table(20, path) == bernoulli_table(20)
    expected = _reference_table_error(values)
    assert expected is not None and "B_80" in expected
    with pytest.raises(TableInvariantError) as info:
        obtain_table(80, path)
    assert str(info.value) == expected
    with pytest.raises(TableInvariantError) as info:
        load_table(path)
    assert str(info.value) == expected
    # One entry read alone: only the tampered entry fails, with that message.
    assert obtain_bernoulli(100, path) == bernoulli_table(100).values[100]
    with pytest.raises(TableInvariantError) as info:
        obtain_bernoulli(80, path)
    assert str(info.value) == expected
    assert path.read_bytes() == tampered


@pytest.mark.parametrize("line", ["x80 1/6", "80x 1/6", "999 1/6", "100 1/6"])
def test_bad_index_past_the_prefix_is_a_format_error(tmp_path, line):
    # Malformed, out of range or duplicate: every line's index is checked.
    path = _persisted(bernoulli_table(100), tmp_path / "bern.cache")
    path.write_text(path.read_text() + line + "\n")
    with pytest.raises(CacheFormatError):
        obtain_table(20, path)
    with pytest.raises(CacheFormatError) as info:
        load_table(path, through=20)
    with pytest.raises(CacheFormatError, match=re.escape(str(info.value))):
        obtain_bernoulli(20, path)


@pytest.fixture(scope="module")
def cache1200(table1200, tmp_path_factory):
    return _persisted(table1200, tmp_path_factory.mktemp("b1200") / "bern.cache")


def test_prefix_loads_of_a_b1200_cache_equal_fresh_tables(table1200, cache1200):
    for through in (0, 1, 2, 41, 400):
        assert load_table(cache1200, through=through) == bernoulli_table(through), through
    assert load_table(cache1200, through=1200) == table1200


@pytest.mark.parametrize("fault", ["duplicate-index", "malformed-index", "non-ascii-byte"])
def test_a_fault_on_the_last_line_fails_every_read(cache1200, tmp_path, fault):
    # The reader walks each line in place and parses only the entries a
    # read needs, yet a fault on the last line of a B_1200 cache, far past
    # B_10 and B_2, still fails both reads with the class and text a read of
    # every line gives.
    written = cache1200.read_bytes()
    last = written.rstrip(b"\n").rsplit(b"\n", 1)[1]
    assert last.startswith(b"1200 ")
    path = tmp_path / "bern.cache"
    if fault == "duplicate-index":
        path.write_bytes(written + last + b"\n")
        message = "cache through B_1200 has bytes after its last line"
    elif fault == "malformed-index":
        path.write_bytes(written[: -len(last) - 1] + b"0" + last + b"\n")
        message = "expected the line for B_1200, found one starting '01200'"
    else:
        path.write_bytes(written + b"\xe9")
        with pytest.raises(UnicodeDecodeError) as decoding:
            path.read_text(encoding="ascii")
        message = f"cache file at {path} is not ASCII: {decoding.value}"
    for read in (lambda: load_table(path, through=10), lambda: obtain_bernoulli(2, path)):
        with pytest.raises(CacheFormatError) as info:
            read()
        assert type(info.value) is CacheFormatError
        assert str(info.value) == message
