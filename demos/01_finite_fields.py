"""Tour of the finite-field layer: GF(l^2), its kernel and scalar groups."""

from lrctower import FiniteField, artin_schreier_kernel, norm_one_group, subfield_units

f = FiniteField(3, 2)
print(f"built {f} with modulus coefficients {f.modulus} (constant term first)")
print(f"element codes are base-{f.p} digit vectors; t has code {f.p}")

t = 3
print(f"t * t = {f.mul(t, t)}   (the modulus says t^2 = -1)")
print(f"(1+t)^2 = {f.pow(t + 1, 2)}")

kernel = artin_schreier_kernel(f)
print(f"\nshift kernel {{a : a^3 + a = 0}} = {kernel}")
print("closed under addition:",
      all(f.add(a, b) in kernel for a in kernel for b in kernel))

units = subfield_units(f)
print(f"subfield units GF(3)* = {units}")

n1 = norm_one_group(f)
print(f"norm-one group {{a : a^4 = 1}} = {n1} (order l+1 = 4)")

f25 = FiniteField(5, 2)
print(f"\n{f25}: kernel size {len(artin_schreier_kernel(f25))},"
      f" norm-one order {len(norm_one_group(f25))}")
