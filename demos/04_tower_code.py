"""Level-2 y-tower code on 18 places: the same group pair acts on the last
coordinate of each place tuple, and the degree budget is split between the
two generators to keep the joint pole divisor inside n - d."""

from lrctower import (
    FiniteField,
    TowerSpec,
    build_recovery_group,
    construct_lrc,
    orbit,
    verify_code,
)

f9 = FiniteField(3, 2)
spec = TowerSpec("gs96", f9, 2)
h1 = build_recovery_group(spec, "additive", shifts="kernel")
h2 = build_recovery_group(spec, "multiplicative", order=2)

code = construct_lrc(spec, (h1, h2), d_target=6)
p = code.params
print(f"n={p.n} k={p.k} designed d={p.d_designed} localities=({','.join(map(str, p.r))})")
print(f"degree budget {code.dims.budget}, per-generator caps {code.dims.caps}")
dim_v1, dim_v2 = code.dims.dim_v
print(f"dim V1={dim_v1} dim V2={dim_v2} dim(V1+V2)={code.dims.dim_sum}")

# orbit(h)[:, j] lists the indices of place j's images, one per element of h
places = [tuple(row) for row in spec.places().tolist()]
print(f"\norbits of place {places[0]}:")
print("  additive:      ", [places[j] for j in orbit(h1)[:, 0]])
print("  multiplicative:", [places[j] for j in orbit(h2)[:, 0]])

report = verify_code(code)
print("\nverification:", "OK" if report.ok else "FAILED")
print(f"  exact distance {report.distance} (designed {report.d_designed})")
print(f"  repair round trips over the {p.k} generator rows x 18 coords x 2 sets:"
      f" {report.repair_mismatches} mismatches, so repair is exact on every codeword")
