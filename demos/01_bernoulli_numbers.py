#!/usr/bin/env python3
"""Bernoulli numbers from one recurrence, and the law that pins their denominators.

Walks through: building an exact table with the integer-only Seidel
recurrence (tangent numbers, converted to rationals once at the end), the
B_1 = -1/2 convention, the von Staudt-Clausen denominator law, and the
tamper-evident text cache.
"""

from fractions import Fraction
from pathlib import Path
from tempfile import TemporaryDirectory

from torelli_euler import (
    TableInvariantError,
    bernoulli_table,
    load_table,
    persist_table,
    tangent_numbers,
    von_staudt_clausen_primes,
)

print("Tangent numbers seed the integer-only route to Bernoulli numbers:")
print("  T_1..T_7 =", tangent_numbers(7))

seidel = bernoulli_table(30)
tangents = tangent_numbers(15)
print("\nB_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), one division per value:")
for n in (0, 1, 2, 4, 12, 16):
    print(f"  B_{n:<2} = {seidel.bernoulli(n)}")
for k in (6, 8):
    four_k = 4**k
    b = Fraction((-1) ** (k - 1) * 2 * k * tangents[k - 1], four_k * (four_k - 1))
    print(f"  from T_{k} = {tangents[k - 1]}: B_{2*k} = {b} (table agrees: {b == seidel.even(k)})")
print("  convention marker:", seidel.convention, "(from z/(e^z - 1))")

print("\nvon Staudt-Clausen: denominator(B_2k) = product of primes p with (p-1) | 2k")
for k in (1, 6, 8, 15):
    primes = von_staudt_clausen_primes(k)
    b = seidel.even(k)
    total = b + sum(Fraction(1, p) for p in primes)
    print(f"  2k = {2*k:>2}: primes {primes}, denominator {b.denominator}, "
          f"B + sum(1/p) = {total} (integer)")

print("\nThe numerators of B_12 and B_16 are the primes doing the heavy lifting later:")
print(f"  |num B_12| = {abs(seidel.bernoulli(12).numerator)}, "
      f"|num B_16| = {abs(seidel.bernoulli(16).numerator)}")

with TemporaryDirectory() as tmp:
    cache = Path(tmp) / "bern.cache"
    persist_table(seidel, cache)
    print(f"\nPersisted to {cache.name}; first lines:")
    for line in cache.read_text().splitlines()[:4]:
        print("   ", line)
    print("  round trip equal:", load_table(cache) == seidel)

    cache.write_text(cache.read_text().replace("-691/2730", "-690/2730"))
    try:
        load_table(cache)
    except TableInvariantError as exc:
        print("  tampered numerator rejected on load:", exc)
