"""The five ladder codes and the truths pinned for each.

Every pin is what the CLI produced when this benchmark was written: the
``n k d r1 r2`` line, the sha256 of the descriptor bytes (descriptor bytes
must never change), and the exact distance ``verify`` reports (None where
q^k is above the 10^7 enumeration cap, so verify skips it).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class LadderCode:
    name: str
    construct: tuple[str, ...]
    line: str
    sha256: str
    distance: int | None
    q: int
    k: int


def _args(variant, ell, m, group1, group2, distance) -> tuple[str, ...]:
    return ("--variant", variant, "--ell", str(ell), "--m", str(m),
            "--group1", group1, "--group2", group2, "--distance", str(distance))


LADDER = {
    c.name: c
    for c in (
        LadderCode("golden", _args("gs96", 3, 1, "add:kernel", "mul:2", 2), "6 2 2 2 1",
                   "4800ea8df2acd17e7881fa13e6afb29992ba984bea319b9c7be0c570c89819d6",
                   4, 9, 2),
        LadderCode("ytower18", _args("gs96", 3, 2, "add:kernel", "mul:2", 6), "18 4 6 2 1",
                   "b5cff435b55a13546a516cb0bc6ae7c84bdd78d740323f6ef46f227380d521b8",
                   8, 9, 4),
        LadderCode("hermitian", _args("gs95", 5, 2, "norm1:2", "norm1:3", 100), "120 5 100 1 2",
                   "a2989475ea971eca78d7a5d4d6caf5d2e5a319752757b723bda63b4314166f08",
                   100, 25, 5),
        LadderCode("gs96-294", _args("gs96", 7, 2, "add:kernel", "mul:6", 150), "294 70 150 6 5",
                   "4f0beb2d5ad61eef4f12555d0263c426534ea1a0c097749bd5080eda8c9c528a",
                   None, 49, 70),
        LadderCode("gs96-500", _args("gs96", 5, 3, "add:kernel", "mul:4", 250), "500 45 250 4 3",
                   "3b235c49afa9f008e6572f5d87d62fc7bf262f3a6cb956acd20040845c2aa137",
                   None, 25, 45),
    )
}


def construct_argv(code: LadderCode, out) -> list[str]:
    return ["construct", *code.construct, "--out", str(out)]


def verify_argv(path, report, seed: int) -> list[str]:
    return ["verify", "--in", str(path), "--seed", str(seed), "--report", str(report)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_construct(code: LadderCode, rc: int, stdout: str, descriptor: bytes | None) -> list[str]:
    """Problems with one ``construct`` call; empty when it matches the pins."""
    problems = []
    if rc != 0:
        problems.append(f"{code.name}: construct exited {rc}")
    first = stdout.splitlines()[0] if stdout else ""
    if first != code.line:
        problems.append(f"{code.name}: construct printed {first!r}, expected {code.line!r}")
    if descriptor is None:
        problems.append(f"{code.name}: no descriptor written")
    elif sha256(descriptor) != code.sha256:
        problems.append(f"{code.name}: descriptor sha256 {sha256(descriptor)} != pinned {code.sha256}")
    return problems


def check_verify(code: LadderCode, rc: int, report: dict | None) -> list[str]:
    """Problems with one ``verify --report`` call; empty when it matches the pins."""
    if report is None:
        return [f"{code.name}: verify exited {rc} without a report"]
    problems = []
    if rc != 0 or report.get("ok") is not True:
        problems.append(f"{code.name}: verify exited {rc}, ok={report.get('ok')!r}")
    checks = report.get("locality_checks") or []
    if report.get("locality_passed") is not True or not checks or not all(a and b for a, b in checks):
        problems.append(f"{code.name}: locality not all true")
    if report.get("repair_mismatches") != 0:
        problems.append(f"{code.name}: {report.get('repair_mismatches')!r} repair mismatches")
    if report.get("distance") != code.distance:
        problems.append(f"{code.name}: distance {report.get('distance')!r}, pinned {code.distance!r}")
    if report.get("failures"):
        problems.append(f"{code.name}: verify failures {report['failures']!r}")
    return problems
