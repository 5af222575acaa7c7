#!/usr/bin/env python3
"""Square classes and local computations: valuations, square classes of
completions, Hilbert symbols, and the product formula.

Every number here is exact; every local answer is a closed form on the
valuation and unit part of its rational arguments.
"""

from wittcert import (
    REAL,
    LocalField,
    Place,
    hilbert_symbol,
    local_square_class,
    padic_valuation,
    prime_support,
    squarefree_rep,
)
from fractions import Fraction

print("=== Square classes of Q ===")
for r in [18, Fraction(-4, 9), Fraction(8, 3), 1000]:
    print(f"  squarefree_rep({r}) = {squarefree_rep(r)}")
print(f"  v_3(1/9) = {padic_valuation(3, Fraction(1, 9))}")
print(f"  prime_support([15, -2]) = {sorted(prime_support([15, -2]))}")

print("\n=== Square classes of completions ===")
Q2, Q5 = LocalField(Place(2)), LocalField(Place(5))
print(f"  class of 2 in Q_5: {local_square_class(2, Q5)}   (2 is a nonresidue mod 5)")
print(f"  class of 4 in Q_5: {local_square_class(4, Q5)}")
print(f"  class of 17 in Q_2: {local_square_class(17, Q2)}  (units = 1 mod 8 are 2-adic squares)")
print(f"  class of 5 in Q_2: {local_square_class(5, Q2)}   (5 is not a 2-adic square)")
E_sqrt5 = LocalField(Place(2), gens=(5,))
print(f"  class of 5 in Q_2(sqrt 5): {local_square_class(5, E_sqrt5)}   (Kummer: a square once adjoined)")

print("\n=== Hilbert symbols ===")
R = LocalField(REAL)
print(f"  (2, 5)_5  = {hilbert_symbol(2, 5, Q5)}   (tame formula)")
print(f"  (-1,-1)_2 = {hilbert_symbol(-1, -1, Q2)}   (Serre: (-1)^(eps(-1) eps(-1)))")
print(f"  (-1,-1)_R = {hilbert_symbol(-1, -1, R)}")

print("\n=== Product formula ===")
for a, b in [(2, 5), (-1, -1), (3, 7), (-6, 15)]:
    places = [R] + [LocalField(Place(p)) for p in sorted(prime_support([a, b]))]
    values = [hilbert_symbol(a, b, E) for E in places]
    names = ["real"] + [str(p) for p in sorted(prime_support([a, b]))]
    prod = 1
    for v in values:
        prod *= v
    terms = ", ".join(f"{n}:{v:+d}" for n, v in zip(names, values))
    print(f"  (a,b) = ({a},{b}):  {terms}  ->  product = {prod:+d}")

print("\n=== Symbols over extension completions ===")
# Norm compatibility: (a, b)_E = (a, b)_{Q_2}^[E:Q_2] for rational a, b, so
# any even-degree extension splits every rational quaternion algebra.
E_unram = E_sqrt5
E_quartic = LocalField(Place(2), gens=(3, 5))
print(f"  (-1,-1) over Q_2(sqrt 5):          {hilbert_symbol(-1, -1, E_unram)}")
print(f"  (-1,-1) over Q_2(sqrt 3, sqrt 5):  {hilbert_symbol(-1, -1, E_quartic)}")
