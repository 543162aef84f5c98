#!/usr/bin/env python3
"""Exact zeta values at negative odd integers and their certified magnitude.

zeta(1-2k) = -B_2k/(2k) is an exact rational; its absolute value strictly
exceeds 2(2k-1)!/(2pi)^(2k), and that bound is certified here with rational
interval arithmetic (pi enters only as an enclosure, never as a float).
"""

from torelli_euler import (
    bernoulli_table,
    pi_interval,
    zeta_abs_lower_bound,
    zeta_one_minus_2k,
)
from torelli_euler.render import decimal_string, format_rational

table = bernoulli_table(60)

print("Exact values (sign alternates like (-1)^k):")
for k in (1, 2, 3, 6, 8, 14):
    zeta = zeta_one_minus_2k(k, table)
    print(f"  zeta(1-2k), k={k:>2}: {format_rational(zeta, 8)}")

print("\npi is only ever an enclosure; at 128 bits:")
enclosure = pi_interval(128)
print("  lo =", decimal_string(enclosure.lo, 40))
print("  hi =", decimal_string(enclosure.hi, 40))
print("  width <= 2^-127:", enclosure.width <= 1 / (2 ** 127))

print("\nCertified lower bound 2(2k-1)!/(2pi)^(2k) < |zeta(1-2k)|:")
print(f"  {'k':>3} {'bound hi endpoint':>24} {'exact |zeta|':>24}")
for k in (1, 2, 5, 9, 15, 30):
    bound = zeta_abs_lower_bound(k)
    exact = abs(zeta_one_minus_2k(k, table))
    assert exact > bound.hi
    print(f"  {k:>3} {decimal_string(bound.hi, 12):>24} {decimal_string(exact, 12):>24}")
print("  strict inequality certified at every k shown (and for k = 1..100 in the tests)")
