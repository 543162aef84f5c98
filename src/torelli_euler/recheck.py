"""The paper's claim, rechecked with the standard library alone: e(m,n) = (2m+n-1)!/(2m)!
prod_{k<=m} 1/|zeta(1-2k)|, zeta(1-2k) = -B_2k/(2k), is no integer for m >= 6, 1 <= n <= n_max.
`certificate(n_max)` searches; `check(cert)` recomputes it and returns None or the first failure.
Run it with a certificate's JSON file, or none for n_max = 677, as a module or a copied file.
"""

import math
from fractions import Fraction

C = Fraction(44, 7)  # above 2pi
GAP = ((2, 1, 4), (1, 2, 4), (1, 1, 20), (0, 2, 10), (0, 1, 22))
PREMISES = (
    "zeta(2k) > 1, so 1/|zeta(1-2k)| < (2pi)^2k/(2(2k-1)!)",
    "pi < 22/7 (Dalzell: the integral of x^4(1-x)^4/(1+x^2) over [0,1] is 22/7 - pi)",
    "von Staudt-Clausen: each prime in the denominator of B_2j is at most 2j+1",
    "Harer-Zagier and Harder, to read e(m,n) as the Euler characteristic chi_Q",
)


def bernoulli(n):
    """B_0..B_n by the binomial recurrence sum_{j<=i} binom(i+1, j) B_j = 0."""
    b = [Fraction(1)]
    for i in range(1, n + 1):
        b.append(-sum(math.comb(i + 1, j) * b[j] for j in range(i) if b[j]) / (i + 1))
    return b


def bounds(n):
    """(m, U(m,n) < 1 and U(m+1,n)/U(m,n) < 1) for m = 1, 2, ..., in integers, where
    0 < e(m,n) < U(m,n) = (2m+n-1)!/(2m)! prod_{k<=m} C^2k/(2(2k-1)!)."""
    a, b = C.numerator**2, C.denominator**2
    top, bottom, m = math.factorial(n + 1) * a, 4 * b, 1
    while True:
        rise = (2 * m + n + 1) * (2 * m + n) * a ** (m + 1)
        fall = (2 * m + 2) * (2 * m + 1) * b ** (m + 1) * 2 * math.factorial(2 * m + 1)
        yield m, top < bottom and rise < fall
        top, bottom, m = top * rise, bottom * fall, m + 1


def certificate(n_max):
    m0 = next(m for m, below in bounds(n_max) if m >= 2 and below)
    bern = bernoulli(16)
    rows = [[abs(bern[2 * k] / (2 * k)).numerator, k, last] for k, last in ((6, 7), (8, m0 - 1))]
    return {"n_max": n_max, "m0": m0, "prime_rows": rows, "gap": [list(t) for t in GAP]}


def check(cert):
    if not isinstance(cert, dict) or sorted(cert) != ["gap", "m0", "n_max", "prime_rows"]:
        return "a certificate has exactly the fields n_max, m0, prime_rows and gap"
    n_max, m0, rows, gap = cert["n_max"], cert["m0"], cert["prime_rows"], cert["gap"]
    triples = rows + gap if type(rows) is list and type(gap) is list else [None]
    values = [n_max, m0, *(v for t in triples if type(t) is list and len(t) == 3 for v in t)]
    if len(values) != 2 + 3 * len(triples) or any(type(v) is not int for v in values):
        return "n_max and m0 are ints, prime_rows and gap lists of [int, int, int]"
    if not (1 <= n_max <= 1000 and 2 <= m0 <= 100):  # keeps any check under a second
        return f"need 1 <= n_max <= 1000 and 2 <= m0 <= 100, got {n_max} and {m0}"
    first = 6
    for p, k, last in rows:  # [p, k, last] settles rows first..last
        if not 1 <= k <= first <= last:
            return f"prime row {[p, k, last]} does not start at row {first} with k <= {first}"
        first = last + 1
    if first != max(m0, 6):
        return f"the prime rows end at row {first - 1}, not at m0 - 1 = {m0 - 1}"
    # A prime of p exceeds 2m+n-1 and 2m+1 on each row m it settles: it divides no factor of
    # (2m+n-1)!/(2m)!, nor (von Staudt-Clausen) a denominator of zeta(1-2j), j <= m.
    bern = bernoulli(2 * max((k for _, k, _ in rows), default=0))
    for p, k, last in rows:
        if p < 2 or (bern[2 * k] / (2 * k)).numerator % p:
            return f"{p} does not divide the numerator of zeta({1 - 2 * k})"
        if math.gcd(p, math.factorial(2 * last + max(n_max, 2) - 1)) > 1:
            return f"{p} has a prime factor at most 2m+n-1 or 2m+1 on row {last}"
    # U(m,n) <= U(m,n_max); its ratio in m falls from m = 2 on, by C^2 A/((2m+3)(2m+2)), C^2 < 42,
    # A = (y+4)(y+3)(x+2)(x+1)/((x+4)(x+3)(y+2)(y+1)) <= 1 for x = 2m, y = x + n_max - 1.
    grid = ((x, x + j) for x in range(5) for j in range(5))
    if any(c < 0 or not 0 <= min(a, b) <= max(a, b) <= 4 for a, b, c in gap) or any(
        (x + 4) * (x + 3) * (y + 2) * (y + 1) - (y + 4) * (y + 3) * (x + 2) * (x + 1)
        != sum(c * x**a * (y - x) ** b for a, b, c in gap) for x, y in grid
    ):
        return f"{gap} is not A's denominator minus numerator with degrees <= 4 and c >= 0"
    if not (C * C < 42 and next(below for m, below in bounds(n_max) if m == m0)):
        return f"U({m0},{n_max}) and its ratio are not both below 1"


if __name__ == "__main__":
    import hashlib
    import json
    import sys
    if len(sys.argv) > 1:
        with open(sys.argv[1], encoding="utf-8") as handle:
            cert = json.load(handle)
    else:
        cert = certificate(677)  # the paper's bound on n
    text = json.dumps(cert, sort_keys=True, separators=(",", ":"))
    print(f"certificate {text}\nsha256 {hashlib.sha256(text.encode()).hexdigest()}")
    print("premises, not computed:", *(f"  {premise}" for premise in PREMISES), sep="\n")
    failure = check(cert)
    if failure:
        sys.exit(f"FAIL: {failure}")
    print(f"PASS: e(m,n) is not an integer for m >= 6 and 1 <= n <= {cert['n_max']}")
