"""Enumerate the completely-splitting places of both towers and check the
closed-form counts and genus values."""

from lrctower import FiniteField, TowerSpec, genus

f9 = FiniteField(3, 2)

print("y-tower over GF(9):")
for m in (1, 2, 3):
    spec = TowerSpec("gs96", f9, m)
    places = spec.places()
    expect = (f9.q - f9.ell) * f9.ell ** (m - 1)
    print(f"  level {m}: {len(places)} places (closed form {expect}), genus {genus(spec)}")

spec2 = TowerSpec("gs96", f9, 2)
print("  first five level-2 places:", [tuple(row) for row in spec2.places()[:5].tolist()])
print("  (each tuple solves a^l + a = prev^l/(prev^(l-1)+1) level by level)")

f25 = FiniteField(5, 2)
print("\nxz-tower over GF(25):")
for m in (1, 2):
    spec = TowerSpec("gs95", f25, m)
    places = spec.places()
    expect = (f25.q - 1) * f25.ell ** (m - 1)
    print(f"  level {m}: {len(places)} places (closed form {expect}), genus {genus(spec)}")
print("  level 2 is the Hermitian function field: z^5 + z = x^6")
