import contextlib
import io
import json
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import torelli_euler.certify as certify_module
from torelli_euler import bernoulli, cli
from torelli_euler.bernoulli import TableInvariantError, bernoulli_table, load_table, persist_table
from torelli_euler.certify import STRATEGIES, certify_non_integrality, threshold_for_n
from torelli_euler.cli import main
from torelli_euler.exact_core import int_to_decimal
from torelli_euler.render import bound_sequence_to_json, rational_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zeta_text(capsys):
    code, out, _ = run(capsys, "zeta", "--k", "6")
    assert code == 0
    assert "691/32760" in out


def test_zeta_json(capsys):
    code, out, _ = run(capsys, "zeta", "--k", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"k": 8, "value": {"num": "3617", "den": "8160"}}


def test_bernoulli_text_and_both(capsys):
    code, out, _ = run(capsys, "bernoulli", "--max-k", "8")
    assert code == 0
    assert "B_12 = -691/2730" in out
    # One algorithm builds every table: `--algorithm` is no option.
    code, out, _ = _outcome(capsys, main, ["bernoulli", "--max-k", "8", "--algorithm", "both"])
    assert (code, out) == (2, "")


def test_bernoulli_json(capsys):
    code, out, _ = run(capsys, "bernoulli", "--max-k", "1", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["max_index"] == 2
    assert {"n": 2, "value": {"num": "1", "den": "6"}} in payload["values"]


@pytest.mark.parametrize(
    "space,g,n,expected",
    [
        ("siegel", 2, 0, "-1/1440"),
        ("moduli", 2, 0, "-1/240"),
        ("torelli", 2, 0, "6"),
        ("torelli", 3, 0, "360"),
    ],
)
def test_chi_spaces(capsys, space, g, n, expected):
    code, out, _ = run(capsys, "chi", "--space", space, "-g", str(g), "-n", str(n))
    assert code == 0
    assert expected in out


def test_chi_torelli_carries_hypothesis_note(capsys):
    _, out, _ = run(capsys, "chi", "--space", "torelli", "-g", "2")
    assert "finiteness hypothesis" in out


def test_internal_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(args):
        raise ValueError("an internal fault")

    monkeypatch.setitem(cli._HANDLERS, "emn", broken)
    code, _, err = run(capsys, "emn", "-m", "1", "-n", "1")
    assert code == 1
    assert "ValueError" in err and "usage error" not in err
    assert "Traceback (most recent call last)" in err


def test_scan_reversed_range_is_a_usage_error(capsys):
    code, _, err = run(
        capsys, "scan", "--m-min", "3", "--m-max", "2", "--n-min", "1", "--n-max", "1"
    )
    assert code == 2 and "usage error" in err


def test_certify_integer_past_the_decimal_digit_limit():
    # e(6,5000) is an integer of more than 4300 decimal digits.
    proc = subprocess.run(
        [sys.executable, "-m", "torelli_euler", "certify", "-m", "6", "-n", "5000",
         "--strategy", "exact"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("e(6,5000): integer: ")
    assert len(proc.stdout.split()[-1]) > 4300


@pytest.mark.parametrize(
    "argv",
    [
        ["bernoulli", "--max-k", "300"],
        ["scan", "--m-min", "6", "--m-max", "30", "--n-min", "1", "--n-max", "50"],
    ],
    ids=["bernoulli", "scan"],
)
def test_a_stdout_closed_by_its_reader_exits_1_quietly(argv):
    # As `... | head -c 20`: each listing (250-430 KB) outlasts the pipe's
    # buffer, so the writer meets the closed pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "torelli_euler", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_chi_usage_errors(capsys):
    code, _, err = run(capsys, "chi", "--space", "torelli", "-g", "1")
    assert code == 2 and "usage error" in err
    code, _, err = run(capsys, "chi", "--space", "siegel", "-g", "2", "-n", "1")
    assert code == 2


def test_emn(capsys):
    code, out, _ = run(capsys, "emn", "-m", "2", "-n", "1")
    assert code == 0 and "1440" in out


def test_certify_exit_codes(capsys):
    code, out, _ = run(capsys, "certify", "-m", "6", "-n", "1", "--strategy", "exact")
    assert code == 0 and "v_691 = -1" in out
    code, out, _ = run(capsys, "certify", "-m", "13", "-n", "1", "--strategy", "bound")
    assert code == 1 and "inconclusive" in out


def test_certify_json(capsys):
    code, out, _ = run(
        capsys, "certify", "-m", "6", "-n", "1", "--strategy", "exact", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["kind"] == "prime-witness"
    assert payload["p"] == "691" and payload["valuation"] == -1
    assert payload["m"] == 6 and payload["n"] == 1


def test_threshold(capsys):
    code, out, _ = run(capsys, "threshold", "-n", "1")
    assert code == 0 and "m0 = 14" in out
    code, out, _ = run(capsys, "threshold", "-n", "1", "--m-cap", "5")
    assert code == 1 and "not found" in out


def test_threshold_json(capsys):
    code, out, _ = run(capsys, "threshold", "-n", "1", "--format", "json", "--m-cap", "20")
    payload = json.loads(out)
    assert code == 0
    assert payload["m_found"] == 14
    assert payload["chain"][0]["m"] == 14


def test_threshold_json_at_large_n(capsys):
    # The chain's 50 enclosures carry prefixes (2m+n-1)!/(2m)! of ~300,000 bits.
    code, out, _ = run(capsys, "threshold", "-n", "20000", "--m-cap", "300", "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["m_found"] == 251
    assert [entry["m"] for entry in payload["chain"]] == list(range(251, 301))


def test_text_threshold_forms_no_link_of_the_chain(capsys, monkeypatch):
    # The text output prints m0 alone, which the walk down from the cap
    # decides: at the largest cap no enclosure of the chain is formed, where
    # forming them took 166 MB.  JSON still forms one per link.
    formed = []
    bound_sequence = certify_module._bound_sequence

    def recording(m, n, prefix):
        formed.append(m)
        return bound_sequence(m, n, prefix)

    monkeypatch.setattr(certify_module, "_bound_sequence", recording)
    code, out, _ = run(capsys, "threshold", "-n", "1", "--m-cap", "700")
    assert code == 0
    assert out == "threshold for n=1: m0 = 14 (bound and ratio certified below 1 through m = 700)\n"
    assert formed == []
    code, out, _ = run(capsys, "threshold", "-n", "1", "--m-cap", "20", "--format", "json")
    assert code == 0 and json.loads(out)["m_found"] == 14
    assert formed == list(range(20, 13, -1))


_THRESHOLD_TEXT = re.compile(
    r"threshold for n=(\d+): (?:m0 = (\d+) \(bound and ratio certified below 1 through "
    r"m = (\d+)\)|not found below cap (\d+))\n"
)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(1, 17).flatmap(lambda bits: st.integers(1, 1 << bits)),
    m_cap=st.integers(1, 200),
)
def test_text_threshold_is_the_library_m0(n, m_cap):
    # n is drawn log-uniform up to the CLI's 2^17, so that m0 falls below
    # the cap for some draws and past it for others.
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["threshold", "-n", str(n), "--m-cap", str(m_cap)])
    text = _THRESHOLD_TEXT.fullmatch(out.getvalue())
    assert text and int(text[1]) == n
    m_found = threshold_for_n(n, m_cap).m_found
    if m_found is None:
        assert (code, text[4]) == (1, str(m_cap))
    else:
        assert (code, text[2], text[3]) == (0, str(m_found), str(m_cap))


def test_scan_text(capsys):
    code, out, _ = run(
        capsys, "scan", "--m-min", "6", "--m-max", "8", "--n-min", "1", "--n-max", "1"
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 3
    assert all("[691/3617]" in line for line in lines)


def test_scan_json(capsys):
    code, out, _ = run(
        capsys,
        "scan",
        "--m-min", "1", "--m-max", "2", "--n-min", "1", "--n-max", "1",
        "--format", "json",
    )
    payload = json.loads(out)
    assert code == 0
    kinds = [row["certificate"]["kind"] for row in payload["points"]]
    assert kinds == ["integer", "integer"]


# The integers a scan's output converts to decimal, read back off the output.
_CONVERTED = {
    "json": r'"(?:num|den|value)": "(\d+)"',
    "text": r"integer: (\d+)|of (\d+)/(\d+) ≈ (\d+)\.(\d+)|upper bound (\d+)\.(\d+)",
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("strategy, m_min", [("exact", 4), ("bound", 14)])
def test_scan_converts_each_distinct_integer_once(capsys, monkeypatch, fmt, strategy, m_min):
    # The points of a row share the denominator of e(m,n) or of its bound,
    # and text repeats whole digits of 0: each is converted once.
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    int_to_decimal.cache_clear()
    _, out, _ = run(
        capsys, "scan", "--m-min", str(m_min), "--m-max", str(m_min + 4), "--n-min", "1",
        "--n-max", "12", "--strategy", strategy, "--format", fmt,
    )
    info = int_to_decimal.cache_info()
    found = [
        int(digits)
        for match in re.findall(_CONVERTED[fmt], out)
        for digits in ((match,) if isinstance(match, str) else match)
        if digits
    ]
    assert len(set(found)) < len(found)  # the output repeats integers
    assert info.misses == len(set(found))
    assert info.hits + info.misses == len(found)


def test_scan_inconclusive_exit(capsys):
    code, out, _ = run(
        capsys,
        "scan",
        "--m-min", "13", "--m-max", "13", "--n-min", "1", "--n-max", "1",
        "--strategy", "bound",
    )
    assert code == 1


def test_cache_build_then_persist_and_env(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "bern.cache"
    code, _, _ = run(capsys, "zeta", "--k", "3", "--cache", str(cache))
    assert code == 0 and cache.exists()
    # Env variable supplies the default path; the cached table is grown.
    monkeypatch.setenv("TORELLI_EULER_CACHE", str(cache))
    code, out, _ = run(capsys, "zeta", "--k", "10")
    assert code == 0
    header = cache.read_text().splitlines()[0]
    assert "max=20" in header


def test_an_empty_cache_option_overrides_the_variable(capsys, tmp_path, monkeypatch):
    # --cache '' means no cache, as an empty variable does: nothing is written
    # to the variable's path, and no directory is taken for a cache file.
    cache = tmp_path / "bern.cache"
    monkeypatch.setenv("TORELLI_EULER_CACHE", str(cache))
    code, out, err = run(capsys, "zeta", "--k", "6", "--cache", "")
    assert (code, err) == (0, "") and "691/32760" in out
    assert not cache.exists()


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_bernoulli_prints_only_the_requested_indices_from_a_larger_cache(
    capsys, tmp_path, fmt
):
    cache = tmp_path / "bern.cache"
    persist_table(bernoulli_table(20), cache)
    code, out, _ = run(
        capsys, "bernoulli", "--max-k", "2", "--cache", str(cache), "--format", fmt,
    )
    fresh = tmp_path / "fresh.cache"
    fresh_code, fresh_out, _ = run(
        capsys, "bernoulli", "--max-k", "2", "--cache", str(fresh), "--format", fmt,
    )
    assert (code, out) == (fresh_code, fresh_out) == (0, out)
    if fmt == "json":
        payload = json.loads(out)
        assert payload["max_index"] == 4
        assert [entry["n"] for entry in payload["values"]] == [0, 1, 2, 4]
    else:
        assert "B_4 = -1/30" in out and "B_6" not in out


def test_corruption_above_the_request_fails_only_the_requests_that_reach_it(
    capsys, tmp_path
):
    cache = tmp_path / "bern.cache"
    table = bernoulli_table(100)
    persist_table(table, cache)
    b = table.values[80]
    cache.write_text(cache.read_text().replace(f"80 {b.numerator}/", f"80 {b.numerator + 1}/"))
    code, out, _ = run(capsys, "zeta", "--k", "6", "--cache", str(cache))
    assert code == 0 and "691/32760" in out
    code, out, err = run(capsys, "zeta", "--k", "40", "--cache", str(cache))
    assert code == 1 and out == ""
    assert err.startswith("cache error:") and "B_80" in err


def test_zeta_parses_only_the_entry_it_prints(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "bern.cache"
    table = bernoulli_table(1200)
    persist_table(table, cache)
    parsed = []

    def counting(text):
        parsed.append(text)
        return int(text)

    monkeypatch.setattr(bernoulli, "decimal_to_int", counting)
    code, out, err = run(capsys, "zeta", "--k", "40", "--cache", str(cache))
    b = table.values[80]
    assert parsed == ["1200", str(b.numerator), str(b.denominator)]  # the header's max first
    assert (code, out, err) == (0, *run(capsys, "zeta", "--k", "40")[1:])


def test_zeta_serves_an_entry_of_a_cache_corrupted_elsewhere(capsys, tmp_path):
    # The tampered B_12 fails the requests that read it, with the message a
    # table load gives, and no other.
    cache = tmp_path / "bern.cache"
    persist_table(bernoulli_table(100), cache)
    cache.write_text(cache.read_text().replace("\n12 -691/2730\n", "\n12 -689/2730\n"))
    original = cache.read_bytes()
    assert (0, *run(capsys, "zeta", "--k", "40")[1:]) == run(
        capsys, "zeta", "--k", "40", "--cache", str(cache)
    )
    with pytest.raises(TableInvariantError) as info:
        load_table(cache)
    assert "B_12" in str(info.value)
    code, out, err = run(capsys, "zeta", "--k", "6", "--cache", str(cache))
    assert (code, out, err) == (1, "", f"cache error: {info.value}\n")
    assert cache.read_bytes() == original


def test_zeta_past_a_smaller_cache_rebuilds_it(capsys, tmp_path):
    # The file written is the persisted table through B_2K, and a corrupt
    # smaller cache is still refused as a table load refuses it.
    cache, expected = tmp_path / "bern.cache", tmp_path / "expected.cache"
    persist_table(bernoulli_table(20), cache)
    persist_table(bernoulli_table(80), expected)
    assert run(capsys, "zeta", "--k", "40", "--cache", str(cache)) == run(capsys, "zeta", "--k", "40")
    assert cache.read_bytes() == expected.read_bytes()
    persist_table(bernoulli_table(20), cache)
    cache.write_text(cache.read_text().replace("12 -691/2730", "12 690/2730"))
    code, out, err = run(capsys, "zeta", "--k", "40", "--cache", str(cache))
    assert (code, out) == (1, "") and err.startswith("cache error:") and "B_12" in err
    assert "max=20" in cache.read_text().splitlines()[0]


def test_an_unwritable_cache_is_a_cache_error_not_a_traceback(tmp_path):
    cache = tmp_path / "absent" / "bern.cache"
    proc = subprocess.run(
        [sys.executable, "-m", "torelli_euler", "zeta", "--k", "3", "--cache", str(cache)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (
        f"cache error: cannot write cache file {cache}: No such file or directory\n"
    )
    assert not (tmp_path / "absent").exists()


def test_a_bound_decided_certify_leaves_the_cache_unread(capsys, tmp_path):
    # `auto` reads the table only when the bound does not decide, in certify
    # and scan alike: a corrupt cache fails the requests that need e(m,n),
    # and no other.
    cache = tmp_path / "bern.cache"
    persist_table(bernoulli_table(20), cache)
    cache.write_text(cache.read_text().replace("12 -691/2730", "12 690/2730"))
    original = cache.read_bytes()
    for request in (
        ("certify", "-m", "100", "-n", "300"),
        ("scan", "--m-min", "100", "--m-max", "101", "--n-min", "300", "--n-max", "301",
         "--strategy", "auto"),
    ):
        code, out, err = run(capsys, *request, "--cache", str(cache))
        assert (code, err) == (0, "") and "0 < e(100,300) < 1" in out
        assert cache.read_bytes() == original
    code, out, err = run(capsys, "certify", "-m", "6", "-n", "1", "--cache", str(cache))
    assert code == 1 and out == "" and err.startswith("cache error:")
    assert cache.read_bytes() == original
    code, out, err = run(capsys, "certify", "-m", "201", "-n", "20000", "--cache", str(cache))
    assert (code, err) == (1, "") and "exact evaluation is unavailable" in out
    assert cache.read_bytes() == original
    persist_table(bernoulli_table(20), cache)
    code, out, err = run(capsys, "certify", "-m", "6", "-n", "1", "--cache", str(cache))
    assert (code, err) == (0, "") and "691" in out


def test_empty_cache_variable_means_no_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TORELLI_EULER_CACHE", "")
    code, out, err = run(capsys, "zeta", "--k", "6")
    assert (code, err) == (0, "") and "691/32760" in out
    assert list(tmp_path.iterdir()) == []


def test_cache_path_naming_a_directory_is_a_cache_error(capsys, tmp_path):
    code, out, err = run(capsys, "zeta", "--k", "6", "--cache", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("cache error:") and "not a regular file" in err
    assert "Traceback" not in err


def test_corrupted_cache_is_diagnosed(capsys, tmp_path):
    cache = tmp_path / "bern.cache"
    persist_table(bernoulli_table(20), cache)
    cache.write_text(cache.read_text().replace("12 -691/2730", "12 690/2730"))
    code, _, err = run(capsys, "zeta", "--k", "6", "--cache", str(cache))
    assert code == 1
    assert "cache error" in err and "von Staudt" in err


def _non_ascii_cache(path):
    persist_table(bernoulli_table(20), path)
    path.write_bytes(path.read_bytes() + "12 -691/2730\u00e9\n".encode())
    return "not ASCII"


def _huge_max_cache(path):
    persist_table(bernoulli_table(20), path)
    path.write_text(path.read_text().replace("max=20", "max=99999999999"))
    return "cache through B_99999999999 has no whole line for B_22"


@pytest.mark.parametrize("corrupt", [_non_ascii_cache, _huge_max_cache])
def test_unreadable_cache_is_a_cache_error(capsys, tmp_path, corrupt):
    cache = tmp_path / "bad.cache"
    diagnosis = corrupt(cache)
    code, out, err = run(capsys, "zeta", "--k", "2", "--cache", str(cache))
    assert code == 1 and out == ""
    assert err.startswith("cache error:") and diagnosis in err
    assert "Traceback" not in err


def test_verify_paper_fails_on_tampered_cache(capsys, tmp_path):
    # With no valid table the suite reports the validation failure and the
    # dependent checks as inconclusive; nothing heavy runs.
    cache = tmp_path / "bern.cache"
    persist_table(bernoulli_table(20), cache)
    cache.write_text(cache.read_text().replace("12 -691/2730", "12 690/2730"))
    code, out, _ = run(capsys, "verify-paper", "--cache", str(cache))
    assert code == 1
    assert "table-source" in out and "von Staudt" in out
    assert "0 fail" not in out.splitlines()[-1]


def test_verify_paper_runs_the_table_free_checks_past_a_garbage_cache(capsys, tmp_path):
    cache = tmp_path / "bad.cache"
    cache.write_text("garbage\n")
    code, out, _ = run(capsys, "verify-paper", "--cache", str(cache))
    lines = out.splitlines()
    assert code == 1
    assert lines[0] == "[    FAIL    ] table-source: cache error: bad cache header: 'garbage'"
    assert any(line.startswith("[    PASS    ] whole-claim: ") for line in lines)
    assert lines[-1] == "summary: 5 pass, 1 fail, 12 inconclusive (mode=standard)"
    assert cache.read_text() == "garbage\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["zeta", "--k", "0"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_verify_paper_has_no_deep_option(capsys):
    code, out, err = _outcome(capsys, main, ["verify-paper", "--deep"])
    assert code == 2 and out == "" and "unrecognized arguments: --deep" in err


def test_digits_above_the_limit_are_a_usage_error(capsys):
    # 10**(10^8) would take longer than any request should: rejected by the
    # parser before the table or the value is formed.
    for digits in ("100001", "100000000"):
        code, out, err = _outcome(capsys, main, ["zeta", "--k", "1", "--digits", digits])
        assert code == 2 and out == "" and "at most 100000 digits" in err, digits
    code, out, _ = run(capsys, "zeta", "--k", "1", "--digits", "100000")
    assert code == 0 and "-1/12" in out


def test_m_cap_above_the_limit_is_a_usage_error(capsys, monkeypatch):
    # At n = 1 the JSON chain to cap 700 is already 358 MB: a larger cap is
    # refused by the parser, before any bound is formed.
    def computed(*args, **kwargs):
        raise AssertionError("the threshold was computed")

    monkeypatch.setattr(cli, "threshold_for_n", computed)
    monkeypatch.setattr(cli, "threshold_m0", computed)
    for cap in ("701", "100000000"):
        code, out, err = _outcome(capsys, main, ["threshold", "-n", "1", "--m-cap", cap])
        assert code == 2 and out == "" and f"at most 700, got {cap}" in err, cap
    # The documented `threshold -n 100000 --m-cap 700` still parses.
    assert cli._m_cap("700") == 700


def test_a_table_past_b_3000_is_a_usage_error(capsys, monkeypatch):
    # A table through B_2K takes time about cubic in K: every request for
    # one past B_3000 is refused before any table is read or built.  So is
    # every m past 1500 under every strategy: the bound alone at m = 10^5
    # ran out of memory, and m0 <= 614 for every n <= 2^17.
    code, out, _ = run(capsys, "certify", "-m", "1500", "-n", "1")
    assert code == 0 and "magnitude witness" in out

    def acquired(*args, **kwargs):
        raise AssertionError("a table was read or built, or a value computed")

    for name in ("obtain_bernoulli", "obtain_table", "certify_non_integrality", "scan"):
        monkeypatch.setattr(cli, name, acquired)
    requests = [
        ["bernoulli", "--max-k", "1501"],
        ["zeta", "--k", "1501"],
        ["zeta", "--k", "30000"],
        ["chi", "--space", "torelli", "-g", "1501"],
        ["emn", "-m", "1501", "-n", "1"],
        ["certify", "-m", "1501", "-n", "1", "--strategy", "exact"],
        ["certify", "-m", "1501", "-n", "1"],
        ["certify", "-m", "100000", "-n", "1", "--strategy", "bound"],
        ["certify", "-m", "1600", "-n", "1000000"],
        ["scan", "--m-min", "1", "--m-max", "1501", "--n-min", "1", "--n-max", "1"],
        ["scan", "--m-min", "1", "--m-max", "1501", "--n-min", "1", "--n-max", "1",
         "--strategy", "bound"],
        ["scan", "--m-min", "1501", "--m-max", "1501", "--n-min", "1", "--n-max", "1"],
    ]
    for argv in requests:
        code, out, err = _outcome(capsys, main, argv)
        assert code == 2 and out == "" and "at most 1500" in err, argv
    assert cli._table_k("1500") == cli._max_k("1500") == 1500 and cli._max_k("0") == 0


def test_an_n_past_the_cap_is_a_usage_error(capsys, monkeypatch):
    # (2m+n-1)!/(2m)! at n = 3 * 10^6 ran past 60 s: every n above 2^17 is
    # refused by the parser, before any value is formed.
    def computed(*args, **kwargs):
        raise AssertionError("a value was computed")

    for name in ("certify_non_integrality", "scan", "threshold_for_n", "e_mn",
                 "chi_torelli", "euler_moduli", "obtain_table"):
        monkeypatch.setattr(cli, name, computed)
    requests = [
        ["certify", "-m", "6", "-n", "3000000", "--strategy", "bound"],
        ["certify", "-m", "1500", "-n", "1000000"],
        ["certify", "-m", "6", "-n", "131073"],
        ["emn", "-m", "6", "-n", "131073"],
        ["chi", "--space", "torelli", "-g", "3", "-n", "131073"],
        ["chi", "--space", "moduli", "-g", "3", "-n", "131073"],
        ["threshold", "-n", "131073"],
        ["scan", "--m-min", "6", "--m-max", "6", "--n-min", "1", "--n-max", "131073"],
        ["scan", "--m-min", "6", "--m-max", "6", "--n-min", "131073", "--n-max", "131073"],
    ]
    for argv in requests:
        code, out, err = _outcome(capsys, main, argv)
        assert code == 2 and out == "" and "at most 131072" in err, argv
    # The documented `threshold -n 131072 --m-cap 700` still parses.
    assert cli._n("131072") == 131072 and cli._marked_points("0") == 0


def test_a_scan_past_the_point_cap_is_a_usage_error(capsys, monkeypatch):
    # Each option is capped alone, but together they admitted about 2 * 10^8
    # points.  A grid over the cap is refused before any table is read.
    def acquired(*args, **kwargs):
        raise AssertionError("a table was read or built, or a point decided")

    for name in ("obtain_table", "scan"):
        monkeypatch.setattr(cli, name, acquired)
    assert cli._MAX_SCAN_POINTS == 10_000
    for strategy in STRATEGIES:
        for m_max, n_max, grid in (("6", "10001", 10001), ("15", "1001", 10010)):
            argv = ["scan", "--m-min", "6", "--m-max", m_max, "--n-min", "1", "--n-max", n_max,
                    "--strategy", strategy]
            code, out, err = _outcome(capsys, main, argv)
            assert code == 2 and out == "", argv
            assert f"a scan covers at most 10000 points, this grid has {grid}" in err
    # Exactly at the cap the request goes on to the scan, stubbed here to find no point.
    monkeypatch.setattr(cli, "scan", lambda *args: iter(()))
    for m_max, n_max in (("6", "10000"), ("15", "1000")):
        argv = ["scan", "--m-min", "6", "--m-max", m_max, "--n-min", "1", "--n-max", n_max]
        assert _outcome(capsys, main, argv) == (0, "", "")


# --- one command's parser ---------------------------------------------------------

_REQUIRED = {
    "bernoulli": ["--max-k", "2"],
    "zeta": ["--k", "6"],
    "chi": ["--space", "siegel", "-g", "2"],
    "emn": ["-m", "2", "-n", "1"],
    "certify": ["-m", "6", "-n", "1"],
    "threshold": ["-n", "1"],
    "scan": ["--m-min", "6", "--m-max", "6", "--n-min", "1", "--n-max", "1"],
    "verify-paper": [],
}


def _argvs_that_never_reach_a_handler(command):
    required = _REQUIRED[command]
    argvs = [
        [command, "--help"],
        [command, *required, "--digits", "x"],
        [command, *required, "--format", "yaml"],
        [command, *required, "--bogus"],
        [command, *required, "extra"],
        [command, *required, "--", "extra"],
        [command, *required, "--cach"],
    ]
    if required:
        argvs += [[command], [command, required[0], "x"]]
    if command in ("certify", "scan"):
        argvs.append([command, *required, "--strategy", "fastest"])
    return argvs


def _outcome(capsys, entry, argv):
    try:
        code = entry(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _through_the_full_parser(argv):
    args = cli._build_parser().parse_args(argv)
    return cli._HANDLERS[args.command](args)


@pytest.mark.parametrize("command", list(_REQUIRED))
def test_one_command_parser_answers_as_the_full_parser(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal
    for argv in _argvs_that_never_reach_a_handler(command):
        expected = _outcome(capsys, _through_the_full_parser, argv)
        assert expected[0] != 0 or argv[1] == "--help"
        assert _outcome(capsys, main, argv) == expected, argv


def test_top_level_argvs_answer_as_the_full_parser(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    abbreviated = ["zeta", "--k", "6", "--cach", str(tmp_path / "bern.cache")]
    for argv in (["--help"], [], ["no-such-command"], ["-h", "zeta"], abbreviated):
        assert _outcome(capsys, main, argv) == _outcome(capsys, _through_the_full_parser, argv)
    assert (tmp_path / "bern.cache").exists()


def test_a_request_builds_only_its_own_parser(capsys, monkeypatch):
    def full_parser():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "_build_parser", full_parser)
    code, out, _ = run(capsys, "zeta", "--k", "6")
    assert code == 0 and "691/32760" in out


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["torelli-euler", "zeta", "--k", "6"])
    assert main(None) == 0
    assert "691/32760" in capsys.readouterr().out


def test_precision_is_taken_by_no_command(capsys, monkeypatch):
    # The certified bound has one precision: no command takes --precision.
    monkeypatch.setenv("COLUMNS", "80")
    for command, required in _REQUIRED.items():
        code, out, err = _outcome(capsys, main, [command, *required, "--precision", "64"])
        assert code == 2 and out == "", command
        assert "unrecognized arguments: --precision 64" in err, command
        code, out, _ = _outcome(capsys, main, [command, "--help"])
        assert code == 0 and "--precision" not in out, command


def test_cli_bounds_are_the_library_bounds(capsys):
    code, out, _ = run(capsys, "threshold", "-n", "13", "--format", "json")
    assert code == 0
    chain = [bound_sequence_to_json(seq) for seq in threshold_for_n(13).chain]
    assert chain and json.loads(out)["chain"] == chain
    code, out, _ = run(
        capsys, "certify", "-m", "14", "-n", "1", "--strategy", "bound", "--format", "json"
    )
    assert code == 0
    upper = certify_non_integrality(14, 1, "bound").upper
    assert json.loads(out)["upper"] == rational_to_json(upper)
