import pytest

from torelli_euler import verify
from torelli_euler.bernoulli import CapacityError, bernoulli_table, persist_table


def test_table_capacity_failure_is_recorded(monkeypatch):
    # A table build that runs out of resources surfaces as CapacityError;
    # the suite records it and marks every table-dependent check.
    def exhausted(required, cache):
        raise CapacityError(f"table build for max_index={required} exhausted memory")

    monkeypatch.setattr(verify, "obtain_table", exhausted)
    report = verify.run_verification_suite("deep")
    source, *rest = report.checks
    assert source.id == "table-source" and source.status == "fail"
    assert "exhausted memory" in source.witness
    assert "build failed" in source.witness and "validation" not in source.witness
    assert len(rest) == 20
    assert all(check.status == "inconclusive" for check in rest)
    assert not report.passed


@pytest.mark.parametrize(
    "corrupt, diagnosis",
    [
        (lambda raw: raw + "12 -691/2730\u00e9\n".encode(), "not ASCII"),
        (lambda raw: raw.replace(b"max=20", b"max=99999999999"), "declares max=99999999999"),
    ],
    ids=["non-ascii", "huge-max"],
)
def test_unreadable_cache_is_recorded_as_a_failed_table_source(tmp_path, corrupt, diagnosis):
    # The suite still reports every check: the table source as failed with
    # the cache diagnosis, the 20 checks that need the table as inconclusive.
    cache = tmp_path / "bad.cache"
    persist_table(bernoulli_table(20), cache)
    cache.write_bytes(corrupt(cache.read_bytes()))
    report = verify.run_verification_suite("standard", cache_path=str(cache))
    source, *rest = report.checks
    assert source.id == "table-source" and source.status == "fail"
    assert source.witness.startswith("table validation failed: ") and diagnosis in source.witness
    assert len(rest) == 20
    assert all(check.status == "inconclusive" for check in rest)
