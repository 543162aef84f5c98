from torelli_euler import verify
from torelli_euler.bernoulli import CapacityError


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
