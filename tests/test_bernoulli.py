import math
from fractions import Fraction

import pytest

from torelli_euler import bernoulli
from torelli_euler.bernoulli import (
    BernoulliTable,
    CacheFormatError,
    CacheMissingError,
    CachePathError,
    CacheVersionError,
    CapacityError,
    TableInvariantError,
    bernoulli_table,
    load_table,
    obtain_table,
    persist_table,
    tangent_numbers,
    von_staudt_clausen_denominator,
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


def test_tangent_numbers_known_values():
    assert tangent_numbers(7) == [1, 2, 16, 272, 7936, 353792, 22368256]
    assert tangent_numbers(0) == []


@pytest.mark.parametrize("algorithm", ["seidel", "akiyama-tanigawa"])
def test_tiny_tables(algorithm):
    zero = bernoulli_table(0, algorithm)
    assert zero.values == (Fraction(1),)
    one = bernoulli_table(1, algorithm)
    assert one.values == (Fraction(1), Fraction(-1, 2))


@pytest.mark.parametrize("algorithm", ["seidel", "akiyama-tanigawa"])
def test_tables_match_definitional_recurrence(algorithm):
    oracle = _binomial_recurrence_bernoulli(60)
    table = bernoulli_table(60, algorithm)
    assert list(table.values) == oracle


def test_fixed_values(table60):
    assert table60.bernoulli(0) == 1
    assert table60.bernoulli(1) == Fraction(-1, 2)
    assert table60.bernoulli(2) == Fraction(1, 6)
    assert table60.bernoulli(3) == 0
    assert table60.bernoulli(12) == Fraction(-691, 2730)
    assert table60.bernoulli(16) == Fraction(-3617, 510)
    assert table60.bernoulli(12).numerator == -691
    assert table60.bernoulli(16).numerator == -3617


def test_cross_algorithm_agreement_to_120():
    assert bernoulli_table(120).values == bernoulli_table(120, "akiyama-tanigawa").values


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
    assert von_staudt_clausen_denominator(k) == expected


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
        BernoulliTable(max_index=1200, values=tuple(values), algorithm="seidel")
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
    with pytest.raises(ValueError):
        bernoulli_table(10, "newton")
    with pytest.raises(ValueError):
        bernoulli_table(-1)


def test_tampered_values_cannot_form_a_table(table60):
    bad = list(table60.values)
    bad[12] = Fraction(-690, 2730)
    with pytest.raises(TableInvariantError):
        BernoulliTable(max_index=60, values=tuple(bad), algorithm="seidel")
    bad = list(table60.values)
    bad[12] = Fraction(-689, 2730)  # denominator law survives, integrality must not
    with pytest.raises(TableInvariantError):
        BernoulliTable(max_index=60, values=tuple(bad), algorithm="seidel")


# --- cache --------------------------------------------------------------------


def test_persist_load_round_trip(tmp_path):
    table = bernoulli_table(100)
    path = tmp_path / "bern.cache"
    persist_table(table, path)
    assert load_table(path) == table


def test_round_trip_preserves_algorithm_tag(tmp_path):
    table = bernoulli_table(12, "akiyama-tanigawa")
    path = tmp_path / "bern.cache"
    persist_table(table, path)
    loaded = load_table(path)
    assert loaded == table and loaded.algorithm == "akiyama-tanigawa"


def test_load_missing_file(tmp_path):
    with pytest.raises(CacheMissingError):
        load_table(tmp_path / "absent.cache")


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
    with pytest.raises(CacheVersionError):
        load_table(path)


def test_load_rejects_unknown_algorithm_tag(tmp_path):
    # Only the two build algorithms are valid tags; "cache" names none.
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
    ["12 banana", "12 1over2", "12 1/2 extra", "999 1/6", "12 1/0", "-1 1/6"],
)
def test_load_malformed_lines(tmp_path, line):
    table = bernoulli_table(20)
    path = tmp_path / "bern.cache"
    persist_table(table, path)
    path.write_text(path.read_text() + line + "\n")
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


def test_load_non_ascii_file_is_a_format_error(tmp_path):
    path = tmp_path / "bern.cache"
    persist_table(bernoulli_table(20), path)
    path.write_bytes(path.read_bytes().replace(b"12 -691/2730", b"12 -691/2730\xc3\xa9"))
    with pytest.raises(CacheFormatError, match="not ASCII"):
        load_table(path)


def test_load_refuses_a_max_past_twice_the_entry_lines(tmp_path):
    # A table through B_20 has 12 entry lines.  A header claiming far more is
    # refused before anything that size is allocated; a shortfall within
    # twice the line count reaches the invariant checks as before.
    path = tmp_path / "bern.cache"
    persist_table(bernoulli_table(20), path)
    text = path.read_text()
    for declared in (25, 99999999999):
        path.write_text(text.replace("max=20", f"max={declared}"))
        with pytest.raises(CacheFormatError, match=f"declares max={declared} .* 12 entry lines"):
            load_table(path)
    path.write_text(text.replace("max=20", "max=24"))
    with pytest.raises(TableInvariantError, match="denominator of B_22"):
        load_table(path)


def test_every_small_valid_table_passes_the_line_count_check(tmp_path):
    path = tmp_path / "bern.cache"
    for max_index in range(41):
        table = bernoulli_table(max_index)
        persist_table(table, path)
        assert load_table(path) == table


# --- prefix loads ---------------------------------------------------------------


def _persisted(table, path):
    persist_table(table, path)
    return path


def test_prefix_loads_equal_fresh_tables(tmp_path):
    path = _persisted(bernoulli_table(120), tmp_path / "bern.cache")
    original = path.read_bytes()
    for required in range(121):
        assert obtain_table(required, path) == bernoulli_table(required), required
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
    prefix = [table1200.values[n] for n in (0, 1, 2, 4, 6, 8, 10, 12)]
    assert parsed == [str(part) for b in prefix for part in (b.numerator, b.denominator)]


# --- the byte reader ------------------------------------------------------------


def test_line_ends_and_blank_lines_read_as_in_a_text_read(tmp_path):
    # persist_table ends lines with \n only.  Other line ends, blank lines,
    # and the line breaks (\v, \f, \x1c-\x1e) and whitespace (\x1f) that
    # str knows beyond bytes split and tokenise as text would.
    table = bernoulli_table(40)
    path = _persisted(table, tmp_path / "bern.cache")
    written = path.read_bytes()
    for edited in (
        written.replace(b"\n", b"\r\n"),
        written.replace(b"\n", b"\r"),
        written.replace(b"\n", b"\n  \n\t\n\n"),
        written.replace(b"\n", b"\x0b").replace(b"\x0b12 ", b"\x0c\x1f12\x1f "),
        written.replace(b"\n", b"\x1c \x1d\x1e\x1f"),
    ):
        path.write_bytes(edited)
        assert load_table(path) == table, edited[:80]
        assert load_table(path, through=12) == bernoulli_table(12), edited[:80]


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
    assert path.read_bytes() == tampered


@pytest.mark.parametrize("line", ["x80 1/6", "80x 1/6", "999 1/6", "100 1/6"])
def test_bad_index_past_the_prefix_is_a_format_error(tmp_path, line):
    # Malformed, out of range or duplicate: every line's index is checked.
    path = _persisted(bernoulli_table(100), tmp_path / "bern.cache")
    path.write_text(path.read_text() + line + "\n")
    with pytest.raises(CacheFormatError):
        obtain_table(20, path)
    with pytest.raises(CacheFormatError):
        load_table(path, through=20)


def test_a_request_for_another_algorithm_keeps_a_larger_cache(tmp_path):
    path = _persisted(bernoulli_table(100), tmp_path / "bern.cache")
    original = path.read_bytes()
    table = obtain_table(4, path, "akiyama-tanigawa")
    assert table == bernoulli_table(4, "akiyama-tanigawa")
    assert table.algorithm == "akiyama-tanigawa"
    assert path.read_bytes() == original
