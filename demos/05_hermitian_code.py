"""Hermitian-level code over GF(25): 120 places, norm-one scalar groups of
orders 2 and 3 acting on x, localities (1, 2).

Pass --exact to also find the true minimum distance. Weight does not change
under nonzero scaling, so the search visits one codeword per scalar class:
406,901 of the 25^5 (well under a second).
"""

import sys

from lrctower import (
    FiniteField,
    TowerSpec,
    brute_force_distance,
    build_recovery_group,
    construct_lrc,
    verify_code,
)

f25 = FiniteField(5, 2)
spec = TowerSpec("gs95", f25, 2)
h1 = build_recovery_group(spec, "multiplicative", order=2)
h2 = build_recovery_group(spec, "multiplicative", order=3)
print(f"H1 scalars {h1.scalars}, H2 scalars {h2.scalars} (norm-one subgroups)")

code = construct_lrc(spec, h1, h2, d_target=100)
p = code.params
print(f"n={p.n} k={p.k} designed d={p.d_designed} localities=({p.r1},{p.r2})")
print("intersection functions are spanned by {1, z, z^2, z^3, x^4}:")
print(code.generator_matrix[:, :12], "... (first 12 of 120 columns)")

report = verify_code(code, exact_distance=False)
print("locality + repair checks:", "OK" if report.ok else "FAILED")

if "--exact" in sys.argv:
    d = brute_force_distance(code)
    print(f"exact minimum distance over the 25^5 codewords: {d}")
    print("(x^4 - c vanishes on 20 places, so weight 100 is attained)")
else:
    print("run with --exact for the exact minimum distance")
