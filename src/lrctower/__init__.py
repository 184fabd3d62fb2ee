"""Locally repairable codes with two disjoint recovery sets, built from
automorphism orbits on recursive tower function fields over GF(l^2)."""

from .bounds import (
    TradeoffLine,
    bmq_bound,
    bt_bound,
    btv_line,
    gs_line,
    regimes,
    rpdv_bound,
)
from .construct import (
    LrcCode,
    construct_lrc,
    evaluation_matrix,
    spanning_set,
)
from .descriptor import code_from_descriptor, code_to_descriptor, load_code, write_descriptor
from .errors import LrcError
from .field import (
    FiniteField,
    artin_schreier_kernel,
    norm_one_group,
    subfield_units,
)
from .groups import (
    RecoveryGroup,
    build_recovery_group,
    combine,
    orbit,
)
from .repair import (
    ErasurePattern,
    LocalityReport,
    brute_force_distance,
    repair,
    verify_code,
    verify_definition1,
)
from .tower import (
    TowerSpec,
    check_place,
    genus,
)

__version__ = "0.1.0"

__all__ = [
    "ErasurePattern",
    "FiniteField",
    "LocalityReport",
    "LrcCode",
    "LrcError",
    "RecoveryGroup",
    "TowerSpec",
    "TradeoffLine",
    "artin_schreier_kernel",
    "bmq_bound",
    "bt_bound",
    "btv_line",
    "brute_force_distance",
    "build_recovery_group",
    "check_place",
    "code_from_descriptor",
    "code_to_descriptor",
    "combine",
    "construct_lrc",
    "evaluation_matrix",
    "genus",
    "gs_line",
    "load_code",
    "norm_one_group",
    "orbit",
    "regimes",
    "repair",
    "rpdv_bound",
    "spanning_set",
    "subfield_units",
    "verify_code",
    "verify_definition1",
    "write_descriptor",
]
