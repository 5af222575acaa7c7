#!/usr/bin/env python3
"""Multiquadratic towers: place splitting, base change of forms, and
norm-group membership (with the intersection law for biquadratic towers)."""

from wittcert import (
    REAL,
    LocalField,
    Place,
    is_hyperbolic_over,
    make_tower,
    norm_member,
    norm_member_tower,
    pfister,
    qform,
    tensor,
    witt_index_over,
)

print("=== Towers ===")
for ds in [[], [5], [2, 18], [2, 3]]:
    M = make_tower(ds)
    note = "  (downgraded: dependent generators)" if M.downgraded else ""
    print(f"  make_tower({ds}) = {M}, degree {M.degree}{note}")

print("\n=== Place splitting ===")
M = make_tower([5])
for v in [REAL, Place(5), Place(11), Place(2), Place(3)]:
    E = LocalField(v, M.generators)
    print(f"  {M} at {v}: {E} (x{M.degree // E.degree})")
M4 = make_tower([-1, 2])
E = LocalField(Place(2), M4.generators)
print(f"  {M4} at 2: one completion with e = {E.e}, f = {E.f} (totally ramified quartic)")

print("\n=== Base change ===")
print(f"  <1,-5> hyperbolic over Q(sqrt 5): {is_hyperbolic_over(qform([1, -5]), make_tower([5]))}")
print(f"  witt index of <1,1,1,1> over Q(sqrt -1): "
      f"{witt_index_over(qform([1, 1, 1, 1]), make_tower([-1]))}")
print(f"  witt index of <1,-5> over Q(sqrt 2): "
      f"{witt_index_over(qform([1, -5]), make_tower([2]))}")
d = 7
theta = qform([3, -5])
phi = tensor(pfister([d]), theta)
print(f"  <<{d}>> (x) {theta} hyperbolic over Q(sqrt {d}): "
      f"{is_hyperbolic_over(phi, make_tower([d]))}   (kernel forms of a quadratic extension)")

print("\n=== Norm groups ===")
print(f"  -1 in N*(Q(sqrt 2)):  {norm_member(-1, 2)}   (-1 = N(1 + sqrt 2))")
print(f"   3 in N*(Q(sqrt 2)):  {norm_member(3, 2)}")
print(f"   4 in N*(Q(sqrt 7)):  {norm_member(4, 7)}   (squares are norms)")

print("\n=== Biquadratic intersection law ===")
M = make_tower([2, 3])
for c in [-1, 23, 25, -6]:
    in2, in3 = norm_member(c, 2), norm_member(c, 3)
    joint = norm_member_tower(c, M)
    print(f"  c = {c:3d}: in N*(sqrt 2): {in2!s:5}  in N*(sqrt 3): {in3!s:5}  "
          f"in Q*^2 N*_M: {joint!s:5}")
