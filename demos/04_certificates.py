#!/usr/bin/env python3
"""Non-integrality certificates for e(m,n), end to end.

The story for n = 1: e(m,1) is an integer through m = 5, picks up the prime
691 in its denominator at m = 6, and from m = 14 on is certified to lie in
(0, 1) by the interval bound alone.  A scan then covers a grid, and the
closing-bound display for the wide window n <= 677 is evaluated in both of
its readings.  The valuation ledger reaches the scan's witnesses from
p-adic valuations alone, one witness per prime per row segment.
"""

from torelli_euler import (
    bernoulli_table,
    certify_non_integrality,
    ledger_scan,
    ledger_segments,
    monotone_decrease_check,
    scan,
    threshold_for_n,
    wide_range_bound_forms,
    wide_range_constant_form_threshold,
)
from torelli_euler.render import certificate_text

table = bernoulli_table(100)

print("Certificates for e(m,1) as m grows:")
for m in (1, 2, 5, 6, 8, 13, 14, 40):
    cert = certify_non_integrality(m, 1, "auto", table)
    print(f"  m={m:>2}: {certificate_text(cert, 8)}")

print("\nWhere does the certified bound take over?  threshold for n = 1:")
result = threshold_for_n(1, m_cap=30)
print(f"  U(m,1) certified below 1 from m = {result.m_found}, with every")
print(f"  consecutive ratio below 1 through the cap ({len(result.chain)} links)")

report = monotone_decrease_check(1, (1, 20), table)
print(f"\ne(m,1) rises up to m = 8 and falls from m = 9 on; increasing steps "
      f"in 1..20: {report.increasing_steps}")

print("\nA small exact scan (m = 4..8, n = 1..3):")
for point in scan((4, 8), (1, 3), "exact", table):
    mark = " [691/3617]" if point.preferred_witness else ""
    print(f"  m={point.m} n={point.n}: "
          f"{certificate_text(point.certificate, 6)}{mark}")

print("\nThe same block from the valuation ledger; e(m,n) is formed only")
print("where neither 691 nor 3617 witnesses:")
for point in ledger_scan((4, 8), (1, 3), table):
    print(f"  m={point.m} n={point.n}: {certificate_text(point.certificate, 6)}")

print("\nThe ledger holds that block as row segments: v_p(e(m,n)) never falls")
print("as n grows, so one witness at a segment's last n covers the whole run:")
for segment in ledger_segments((4, 8), (1, 3), table):
    print(f"  m={segment.m} n={segment.n_first}..{segment.n_last}: "
          f"{certificate_text(segment.certificate, 6)}")

print("\nThe closing bound for the wide window n <= 677 has two readings:")
threshold = wide_range_constant_form_threshold(45)
forms = wide_range_bound_forms(37)
print(f"  constant-factor reading first below 1 at m = {threshold}:")
print(f"    at m=37 its hi endpoint is about {float(forms.constant_factor_product.hi):.3g}")
print("  per-index reading at m=37 is still astronomically large:")
print(f"    lo endpoint has about "
      f"{len(str(int(forms.per_index_product.lo)))} digits")
print("  both are computed and reported; they cannot both be what was meant")
