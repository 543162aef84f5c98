#!/usr/bin/env python3
"""The three Euler characteristics and the product identity tying them together.

e(moduli) = chi_Q(torelli) * e(siegel-quotient), exactly, with each side
evaluated through an independent code path.  Also shows the 14-factor zeta
product whose size drives the non-integrality argument.
"""

from torelli_euler import (
    bernoulli_table,
    chi_torelli,
    euler_moduli,
    zeta_product,
)
from torelli_euler.render import decimal_string, format_rational

table = bernoulli_table(80)

print("Siegel quotient, moduli space, and Torelli space at small genus:")
for g in (2, 3, 4):
    siegel = zeta_product(g, table)
    moduli = euler_moduli(g, 0, table)
    torelli = chi_torelli(g, 0, table)
    print(f"  g={g}: siegel {format_rational(siegel, 10)}")
    print(f"       moduli {format_rational(moduli, 10)}")
    print(f"       torelli chi_Q {format_rational(torelli, 10)} "
          "(formula value under the finiteness hypothesis)")

print("\nMarked points flip signs and grow factorially:")
for n in (0, 1, 2, 3):
    print(f"  moduli g=2, n={n}: {format_rational(euler_moduli(2, n, table), 8)}")

print("\nProduct identity, exact on a grid:")
holds = [
    euler_moduli(g, n, table) == chi_torelli(g, n, table) * zeta_product(g, table)
    for g in range(2, 21)
    for n in range(0, 6)
]
print(f"  {len(holds)} grid points, all equal: {all(holds)}")
torelli, siegel, moduli = chi_torelli(2, 0, table), zeta_product(2, table), euler_moduli(2, 0, table)
print(f"  e.g. g=2, n=0: {torelli} * {siegel} = {moduli}")

print("\nThe 14-factor zeta product (the computer-assisted number):")
product = zeta_product(14, table)
print("  exact  =", product)
print("  decimal =", decimal_string(product, 8))
print("  (printed elsewhere as -297203.11, which is this value rounded to 2 decimals)")
