"""Distance bounds, admissible locality regimes and trade-off lines."""

from lrctower import (
    bmq_bound,
    bt_bound,
    btv_line,
    gs_line,
    regimes,
    rpdv_bound,
)

n, k, t, r = 18, 8, 2, 2
print(f"upper bounds on d for an [n={n}, k={k}] code with availability {t}, "
      f"localities ({r},{r}):")
# singleton is bmq at one locality; tb and wz are bt and bmq at t equal ones
print(f"  singleton  {bmq_bound(n, k, [r])}")
print(f"  tb         {bt_bound(n, k, [r] * t)}")
print(f"  wz         {bmq_bound(n, k, [r] * t)}")
print(f"  rpdv       {rpdv_bound(n, k, r, t)}")
print(f"  bt         {bt_bound(n, k, [r, r])}")
print(f"  bmq        {bmq_bound(n, k, [r, r])}")

print("\nadmissible locality pairs for l = 8:")
for row in regimes(8):
    note = "" if row.line_defined else "   <- line undefined at r1=r2=1"
    print(f"  {row.theorem:8s} (r1, r2) = ({row.r1}, {row.r2}){note}")

print("\ntrade-off lines   delta + slope * R >= intercept:")
for line in (gs_line(8, 3, 1, "thm35"), btv_line(8, 2, 3), gs_line(8, 3, 1, "thm34")):
    tag = " [vacuous]" if line.vacuous else ""
    print(f"  {line.family:6s} (r1, r2)=({line.r1},{line.r2}): slope {line.slope}, "
          f"intercept {line.intercept} = {float(line.intercept):.12g}{tag}")

print("\nintercepts approach (l-2)/(l-1) as l grows (fixed localities (3,1)):")
for ell in (8, 16, 32, 64):
    line = gs_line(ell, 3, 1, "thm35")
    print(f"  l={ell:3d}: intercept {str(line.intercept):>12s} ~ {float(line.intercept):.6f}")
