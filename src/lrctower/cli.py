"""Command-line surface: construct, verify, repair-demo, bounds, regimes, tradeoff.

Same flags and seed give byte-identical outputs.  The LRC_MAX_ENUM
environment variable overrides the 10^7 exhaustive-enumeration cap.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path

from . import bounds as bnd
from .construct import construct_lrc
from .descriptor import json_text, load_code, write_descriptor
from .errors import LrcError, RegimeViolation, VariantMismatch
from .field import FiniteField, shared_field
from .groups import ADDITIVE, MULTIPLICATIVE, RecoveryGroup, build_recovery_group
from .repair import (
    DEFAULT_ENUM_CAP, ErasurePattern, check_coord, random_codewords, repair, verify_code,
)
from .tower import GS95, GS96, TowerSpec


def _field_for_ell(ell: int) -> FiniteField:
    p, w = bnd.prime_power(ell)
    return shared_field(p, 2 * w)


def _integer(what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} {text!r} is not an integer") from None


def _flagged(flag: str, text: str, parse):
    """parse(text), with a ValueError or LrcError refused by the flag and its
    value, in the error's own class."""
    try:
        return parse(text)
    except (ValueError, LrcError) as exc:
        raise type(exc)(f"{flag} {text!r}: {exc}") from None


def parse_group_spec(spec: TowerSpec, text: str) -> RecoveryGroup:
    """Mini-language: add:kernel | add:gens=a,b | mul:ORDER | norm1:ORDER."""
    kind, _, rest = text.partition(":")
    if kind == "add":
        if rest == "kernel":
            return build_recovery_group(spec, ADDITIVE, shifts="kernel")
        if rest.startswith("gens="):
            gens = [_integer("shift", x) for x in rest[len("gens="):].split(",") if x]
            return build_recovery_group(spec, ADDITIVE, shifts=gens)
        raise ValueError("an additive group is add:kernel or add:gens=a,b")
    if kind == "mul":
        if spec.variant != GS96:
            raise VariantMismatch("xz-tower scalars are norm-one elements; use norm1:ORDER")
        return build_recovery_group(spec, MULTIPLICATIVE, order=_integer("order", rest))
    if kind == "norm1":
        if spec.variant != GS95:
            raise VariantMismatch("norm1 groups live on the xz-tower; use mul:ORDER")
        return build_recovery_group(spec, MULTIPLICATIVE, order=_integer("order", rest))
    raise ValueError(f"unknown group kind {kind!r}")


def validate_regime(spec: TowerSpec, g1: RecoveryGroup, g2: RecoveryGroup) -> str:
    """Map the group pair onto its regime token and check that regime's
    conditions (RegimeViolation names the token otherwise)."""
    kinds = {g1.kind, g2.kind}
    family = bnd.THM34 if spec.variant == GS96 else bnd.THM35
    if kinds == {ADDITIVE, MULTIPLICATIVE}:
        if spec.variant != GS96:
            raise RegimeViolation(
                "xz-tower pairs must be norm1/norm1 or add/add (no mixed regime)"
            )
        if g1.kind == MULTIPLICATIVE:
            raise RegimeViolation("thm33 takes the additive group as group1, since it carries r1")
        token = bnd.THM33
    else:
        token = f"{family}.1" if kinds == {MULTIPLICATIVE} else f"{family}.2"
    bnd.check_regime(token, spec.ell, g1.r, g2.r)
    return token


def _enum_cap() -> int:
    cap = _integer("LRC_MAX_ENUM", os.environ.get("LRC_MAX_ENUM", str(DEFAULT_ENUM_CAP)))
    if cap < 0:
        raise ValueError("LRC_MAX_ENUM must be >= 0")
    return cap


def cmd_construct(args) -> int:
    fld = _field_for_ell(args.ell)
    spec = TowerSpec(args.variant, fld, args.m)
    g1 = _flagged("--group1", args.group1, lambda text: parse_group_spec(spec, text))
    g2 = _flagged("--group2", args.group2, lambda text: parse_group_spec(spec, text))
    regime = validate_regime(spec, g1, g2)
    code = construct_lrc(spec, g1, g2, args.distance)
    write_descriptor(code, args.out, seed=args.seed)
    p = code.params
    print(f"{p.n} {p.k} {p.d_designed} {p.r1} {p.r2}")
    if args.verbose:
        print(f"regime {regime}; dims V1={code.dims.dim_v1} V2={code.dims.dim_v2} "
              f"sum={code.dims.dim_sum} budget={code.dims.budget}")
    return 0


def cmd_verify(args) -> int:
    code = load_code(args.path)
    report = verify_code(code, distance_cap=_enum_cap(), exact_distance=args.exact_distance)
    print(f"locality {'pass' if report.locality_passed else 'FAIL'}")
    print(f"repair {'pass' if report.repair_mismatches == 0 else 'FAIL'} "
          f"({code.params.k} generator rows)")
    if report.distance is None:
        print("distance skipped")
    else:
        print(f"distance {report.distance} (designed {report.d_designed}) "
              f"{'pass' if report.distance_ok else 'FAIL'}")
    for f in report.failures:
        print(f"failure: {f}")
    print("OK" if report.ok else "FAILED")
    if args.report:
        Path(args.report).write_text(json_text(report.to_json()))
    return 0 if report.ok else 1


def cmd_repair_demo(args) -> int:
    code = load_code(args.path)
    word = [int(x) for x in random_codewords(code, 1, seed=args.seed)[0]]
    i = args.coord if args.coord is not None else args.seed % code.params.n
    check_coord(code, i)
    truth = word[i]
    print(f"codeword: {word}")
    print(f"erasing coordinate {i} (symbol {truth})")
    for j in (1, 2):
        if args.set and j != args.set:
            continue
        got = repair(code, ErasurePattern(tuple(word), i, j))
        status = "ok" if got == truth else "MISMATCH"
        print(f"set {j} {code.recovery_sets[j - 1][i].tolist()} -> repaired symbol {got} [{status}]")
        if got != truth:
            return 1
    return 0


def cmd_bounds(args) -> int:
    if args.t < 1:
        raise ValueError("availability must be >= 1")
    rs = _flagged("--r", args.r, lambda text: [_integer("locality", x) for x in text.split(",") if x])
    if len(rs) == 1 and args.t > 1:
        rs = rs * args.t
    if len(rs) != args.t:
        raise ValueError("length of --r must equal --t")
    r = max(rs)
    rows = [
        ("singleton", bnd.bmq_bound(args.n, args.k, [r])),
        ("tb", bnd.bt_bound(args.n, args.k, [r] * args.t)),
        ("wz", bnd.bmq_bound(args.n, args.k, [r] * args.t)),
        ("rpdv", bnd.rpdv_bound(args.n, args.k, r, args.t)),
        ("bt", bnd.bt_bound(args.n, args.k, sorted(rs))),
        ("bmq", bnd.bmq_bound(args.n, args.k, rs)),
    ]
    for name, val in rows:
        print(f"{name} {val}")
    if args.csv:
        Path(args.csv).write_text(bnd.csv_text(["bound", "value"], rows))
    return 0


def cmd_regimes(args) -> int:
    rows = bnd.regimes(args.ell)
    for row in rows:
        note = "" if row.line_defined else "  [line undefined at r1=r2=1]"
        print(f"{row.theorem} r1={row.r1} r2={row.r2}{note}")
    if args.csv:
        Path(args.csv).write_text(bnd.regimes_csv(rows))
    return 0


def cmd_tradeoff(args) -> int:
    if args.variant == bnd.BTV:
        line = bnd.btv_line(args.ell, args.r1, args.r2)
    else:
        line = bnd.gs_line(args.ell, args.r1, args.r2, args.variant)
    print(f"family {line.family} ell={line.ell} r1={line.r1} r2={line.r2}")
    print(f"slope {line.slope.numerator}/{line.slope.denominator} "
          f"({float(line.slope):.12g})")
    print(f"intercept {line.intercept.numerator}/{line.intercept.denominator} "
          f"({float(line.intercept):.12g})")
    if line.vacuous:
        print("vacuous: intercept is not positive at this size")
    if args.csv:
        Path(args.csv).write_text(bnd.tradeoff_csv([line]))
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one in the process (``build_parser.__wrapped__()`` builds a new
    one)."""
    ap = argparse.ArgumentParser(prog="lrctower")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="build a code and write its descriptor")
    c.add_argument("--variant", choices=[GS96, GS95], required=True)
    c.add_argument("--ell", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--group1", required=True)
    c.add_argument("--group2", required=True)
    c.add_argument("--distance", type=int, required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--verbose", action="store_true")
    c.set_defaults(fn=cmd_construct)

    v = sub.add_parser("verify", help="check a descriptor; exit 0 iff all pass")
    v.add_argument("--in", dest="path", required=True)
    v.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored: verify draws nothing at random")
    distance = v.add_mutually_exclusive_group()  # exact_distance: True, False or None (by the cap)
    distance.add_argument("--exact-distance", action="store_const", const=True)
    distance.add_argument("--skip-distance", dest="exact_distance", action="store_const", const=False)
    v.add_argument("--report")
    v.set_defaults(fn=cmd_verify)

    d = sub.add_parser("repair-demo", help="erase one symbol and repair it")
    d.add_argument("--in", dest="path", required=True)
    d.add_argument("--coord", type=int)
    d.add_argument("--set", type=int, choices=[1, 2])
    d.add_argument("--seed", type=int, default=0)
    d.set_defaults(fn=cmd_repair_demo)

    b = sub.add_parser("bounds", help="evaluate the six distance bounds")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--t", type=int, required=True)
    b.add_argument("--r", required=True, help="comma-separated localities")
    b.add_argument("--csv")
    b.set_defaults(fn=cmd_bounds)

    g = sub.add_parser("regimes", help="admissible locality pairs for one l")
    g.add_argument("--ell", type=int, required=True)
    g.add_argument("--csv")
    g.set_defaults(fn=cmd_regimes)

    t = sub.add_parser("tradeoff", help="rate/distance trade-off line")
    t.add_argument("--ell", type=int, required=True)
    t.add_argument("--r1", type=int, required=True)
    t.add_argument("--r2", type=int, required=True)
    t.add_argument("--variant", choices=[bnd.BTV, bnd.THM33, bnd.THM34, bnd.THM35],
                   required=True)
    t.add_argument("--csv")
    t.set_defaults(fn=cmd_tradeoff)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (LrcError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
