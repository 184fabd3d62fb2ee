import argparse
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lrctower import FiniteField, LrcError, TowerSpec, construct_lrc
from lrctower import cli
from lrctower.cli import build_parser, main, parse_group_spec
from lrctower.descriptor import (
    FIELDS,
    code_from_descriptor,
    code_to_descriptor,
    json_text,
    load_code,
)
from lrctower.errors import IllegalOrder, NotASubgroup
from lrctower.field import shared_field

from conftest import bound_formulas


GOLDEN_ARGS = [
    "construct", "--variant", "gs96", "--ell", "3", "--m", "1",
    "--group1", "add:kernel", "--group2", "mul:2", "--distance", "2",
]


def test_construct_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "code.json"
    assert main(GOLDEN_ARGS + ["--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "6 2 2 2 1"
    assert main(["verify", "--in", str(out)]) == 0
    text = capsys.readouterr().out
    assert "distance 4 (designed 2) pass" in text and text.strip().endswith("OK")


def test_construct_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(GOLDEN_ARGS + ["--out", str(a)])
    main(GOLDEN_ARGS + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_descriptor_round_trip_no_shared_state(tmp_path, golden_code):
    out = tmp_path / "c.json"
    out.write_bytes(json_text(code_to_descriptor(golden_code)).encode())
    loaded = load_code(out)
    assert loaded.params == golden_code.params
    assert (loaded.generator_matrix == golden_code.generator_matrix).all()
    assert all((a == b).all() for a, b in zip(loaded.recovery_sets, golden_code.recovery_sets))
    assert loaded.spec == golden_code.spec


def test_tower_descriptor_verifies(tmp_path, capsys):
    out = tmp_path / "m2.json"
    args = ["construct", "--variant", "gs96", "--ell", "3", "--m", "2",
            "--group1", "add:kernel", "--group2", "mul:2",
            "--distance", "6", "--out", str(out)]
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("18 ")
    assert main(["verify", "--in", str(out), "--report", str(tmp_path / "rep.json")]) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["ok"] and rep["distance"] >= 6


def test_verify_fails_on_corrupted_recovery_index(tmp_path, capsys):
    # the sets are the groups' orbits: a moved index is refused on load
    out = tmp_path / "code.json"
    main(GOLDEN_ARGS + ["--out", str(out)])
    capsys.readouterr()
    desc = json.loads(out.read_text())
    desc["recovery_sets"][0]["set1"][0] = (desc["recovery_sets"][0]["set1"][0] + 1) % 6
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(desc))
    assert main(["verify", "--in", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: recovery_sets[0].set1 = [3, 4] is not the orbit set [2, 4]\n"


def test_verify_fails_on_repeated_recovery_index(tmp_path, capsys):
    # a repeated index (two Lagrange nodes that coincide) is refused on load
    out = tmp_path / "code.json"
    main(GOLDEN_ARGS + ["--out", str(out)])
    capsys.readouterr()
    desc = json.loads(out.read_text())
    desc["recovery_sets"][0]["set1"] = [2, 2]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(desc))
    assert main(["verify", "--in", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: recovery_sets[0].set1 = [2, 2] is not the orbit set [2, 4]\n"


@pytest.mark.parametrize("field, value, message", [
    pytest.param("k", 3, "params.k = 3 does not match the row count 2 of generator_matrix",
                 id="k-3"),
    pytest.param("k", 1, "params.k = 1 does not match the row count 2 of generator_matrix",
                 id="k-1"),
    pytest.param("rows", 1, "params.k = 2 does not match the row count 1 of generator_matrix",
                 id="rows-1"),
])
def test_verify_fails_on_dimension_mismatch(tmp_path, capsys, field, value, message):
    # params.k disagrees with the generator's row count: the descriptor is
    # refused by path on load. A code in memory derives params, so it cannot
    # be given a k, and its k is the generator's row count
    out = tmp_path / "code.json"
    main(GOLDEN_ARGS + ["--out", str(out)])
    desc = json.loads(out.read_text())
    code = load_code(out)
    if field == "k":
        desc["params"]["k"] = value
    else:
        desc["generator_matrix"] = desc["generator_matrix"][:value]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(desc))
    capsys.readouterr()
    assert main(["verify", "--in", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    if field == "k":
        with pytest.raises(ValueError, match="field params is declared with init=False"):
            dataclasses.replace(code, params=dataclasses.replace(code.params, k=value))
    else:
        assert dataclasses.replace(code, generator_matrix=code.generator_matrix[:value]).params.k == value


# descriptor sha256 of the ladder codes; any change to descriptor bytes is a
# behaviour change and must show up here
DESCRIPTOR_PINS = {
    "golden": (GOLDEN_ARGS[1:],
               "4800ea8df2acd17e7881fa13e6afb29992ba984bea319b9c7be0c570c89819d6"),
    "ytower18": (["--variant", "gs96", "--ell", "3", "--m", "2", "--group1", "add:kernel",
                  "--group2", "mul:2", "--distance", "6"],
                 "b5cff435b55a13546a516cb0bc6ae7c84bdd78d740323f6ef46f227380d521b8"),
    "hermitian": (["--variant", "gs95", "--ell", "5", "--m", "2", "--group1", "norm1:2",
                   "--group2", "norm1:3", "--distance", "100"],
                  "a2989475ea971eca78d7a5d4d6caf5d2e5a319752757b723bda63b4314166f08"),
    # the two codes whose cap-profile search chooses among 21 and 66 splits
    "gs96-294": (["--variant", "gs96", "--ell", "7", "--m", "2", "--group1", "add:kernel",
                  "--group2", "mul:6", "--distance", "150"],
                 "4f0beb2d5ad61eef4f12555d0263c426534ea1a0c097749bd5080eda8c9c528a"),
    "gs96-500": (["--variant", "gs96", "--ell", "5", "--m", "3", "--group1", "add:kernel",
                  "--group2", "mul:4", "--distance", "250"],
                 "3b235c49afa9f008e6572f5d87d62fc7bf262f3a6cb956acd20040845c2aa137"),
}


@pytest.mark.parametrize("name", sorted(DESCRIPTOR_PINS))
def test_descriptor_bytes_pinned(name, tmp_path):
    args, digest = DESCRIPTOR_PINS[name]
    out = tmp_path / f"{name}.json"
    assert main(["construct", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(DESCRIPTOR_PINS))
def test_json_text_writes_what_json_dumps_writes(name, tmp_path, capsys):
    """The one writer matches json.dumps(sort_keys=True, indent=2) byte for
    byte on each ladder descriptor and on the golden code's verify report.
    Each descriptor also passes the loader's recovery-set and cap checks
    and writes back its own bytes."""
    args, _ = DESCRIPTOR_PINS[name]
    out, report = tmp_path / f"{name}.json", tmp_path / "report.json"
    assert main(["construct", *args, "--out", str(out)]) == 0
    assert json_text(code_to_descriptor(load_code(out))).encode() == out.read_bytes()
    files = [out]
    if name == "golden":
        assert main(["verify", "--in", str(out), "--report", str(report)]) == 0
        files.append(report)
    for path in files:
        value = json.loads(path.read_text())
        assert path.read_text() == json_text(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_json_text_matches_json_dumps_on_any_value(value):
    """Empty and nested containers, lists mixing ints with bools, floats
    (NaN and infinities too) and non-ASCII keys and strings; a tuple
    writes as the list it holds."""
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"
    if isinstance(value, list):
        assert json_text(tuple(value)) == json_text(value)


def test_verify_caps_count_generator_rows(tmp_path, capsys, monkeypatch):
    # params.k = 1 understates the 4 rows of the 18-place code: a descriptor
    # saying so is refused on load, before the distance cap sees any k. In
    # memory k is the generator's row count, so the caps see 9^rows
    out = tmp_path / "code.json"
    main(["construct", *DESCRIPTOR_PINS["ytower18"][0], "--out", str(out)])
    desc = json.loads(out.read_text())
    desc["params"]["k"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(desc))
    capsys.readouterr()
    monkeypatch.setenv("LRC_MAX_ENUM", "100")
    assert main(["verify", "--in", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "error: params.k = 1 does not match the row count 4 of generator_matrix\n")
    code = load_code(out)
    assert dataclasses.replace(code, generator_matrix=code.generator_matrix[:1]).params.k == 1


@pytest.mark.parametrize("value, message", [
    ("abc", "LRC_MAX_ENUM 'abc' is not an integer"),
    ("1e3", "LRC_MAX_ENUM '1e3' is not an integer"),
    ("-5", "LRC_MAX_ENUM must be >= 0"),
])
@pytest.mark.parametrize("exact", [[], ["--exact-distance"]])
def test_verify_refuses_bad_enum_cap_by_name(tmp_path, capsys, monkeypatch, value, message, exact):
    out = tmp_path / "code.json"
    main(GOLDEN_ARGS + ["--out", str(out)])
    capsys.readouterr()
    monkeypatch.setenv("LRC_MAX_ENUM", value)
    assert main(["verify", "--in", str(out), *exact]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_verify_skips_phases_on_short_generator(tmp_path, capsys, golden_code):
    # 3 generator columns for 6 places: a descriptor is refused on load, and
    # no code can be built in memory, so no later phase indexes past them
    desc = code_to_descriptor(golden_code)
    desc["generator_matrix"] = [[1, 2, 3]]
    bad, report = tmp_path / "bad.json", tmp_path / "report.json"
    bad.write_text(json.dumps(desc))
    assert main(["verify", "--in", str(bad), "--report", str(report)]) == 1
    assert capsys.readouterr().err == (
        "error: params.n = 6 does not match the column count 3 of generator_matrix\n")
    assert not report.exists()
    with pytest.raises(ValueError, match=re.escape(
            "params.n = 6 does not match the column count 3 of generator_matrix")):
        dataclasses.replace(golden_code, generator_matrix=np.array([[1, 2, 3]]))


def test_conflicting_groups_error(tmp_path, capsys):
    # identical shift groups pass the size restriction but overlap
    args = ["construct", "--variant", "gs96", "--ell", "4", "--m", "1",
            "--group1", "add:gens=1", "--group2", "add:gens=1",
            "--distance", "2", "--out", str(tmp_path / "x.json")]
    assert main(args) == 1
    assert "identity" in capsys.readouterr().err
    # oversized additive pair is caught by the regime check first
    args = ["construct", "--variant", "gs96", "--ell", "3", "--m", "1",
            "--group1", "add:kernel", "--group2", "add:kernel",
            "--distance", "2", "--out", str(tmp_path / "y.json")]
    assert main(args) == 1
    assert "thm34.2" in capsys.readouterr().err


def test_group_spec_language_errors(tmp_path, capsys):
    base = ["construct", "--variant", "gs95", "--ell", "5", "--m", "2",
            "--distance", "100", "--out", str(tmp_path / "x.json")]
    assert main(base + ["--group1", "mul:2", "--group2", "norm1:3"]) == 1
    assert "norm1" in capsys.readouterr().err
    args = ["construct", "--variant", "gs96", "--ell", "3", "--m", "1",
            "--group1", "norm1:2", "--group2", "mul:2",
            "--distance", "2", "--out", str(tmp_path / "y.json")]
    assert main(args) == 1


@pytest.mark.parametrize("variant, flag, spec, message", [
    ("gs96", "--group2", "mul:abc", "order 'abc' is not an integer"),
    ("gs96", "--group2", "mul:", "order '' is not an integer"),
    ("gs96", "--group2", "add:gens=3,x", "shift 'x' is not an integer"),
    ("gs96", "--group2", "add:three", "an additive group is add:kernel or add:gens=a,b"),
    ("gs96", "--group1", "sub:2", "unknown group kind 'sub'"),
    ("gs95", "--group1", "norm1:2.5", "order '2.5' is not an integer"),
])
def test_construct_refuses_bad_group_spec_by_flag(tmp_path, capsys, variant, flag, spec, message):
    out = tmp_path / "x.json"
    ell, group1, group2 = ("3", "add:kernel", "mul:2") if variant == "gs96" else ("5", "norm1:2", "norm1:3")
    group1, group2 = (spec, group2) if flag == "--group1" else (group1, spec)
    assert main(["construct", "--variant", variant, "--ell", ell, "--m", "1", "--group1", group1,
                 "--group2", group2, "--distance", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {flag} {spec!r}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text, error, message", [
    ("add:gens=1", NotASubgroup, "shift 1 is outside the additive kernel"),
    ("mul:3", IllegalOrder, "order 3 does not divide 2"),
])
def test_group_builder_error_is_refused_by_flag_in_its_class(tmp_path, capsys, text, error, message):
    """An LrcError of the group builder names the flag and the spec, and
    keeps its class."""
    out = tmp_path / "x.json"
    argv = ["construct", "--variant", "gs96", "--ell", "3", "--m", "1", "--group1", "add:kernel",
            "--group2", text, "--distance", "2", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: --group2 {text!r}: {message}\n"
    args = build_parser().parse_args(argv)
    with pytest.raises(error) as exc:
        args.fn(args)
    assert str(exc.value) == f"--group2 {text!r}: {message}"
    assert not out.exists()


@pytest.mark.parametrize("t, r, message", [
    ("2", "2,x", "--r '2,x': locality 'x' is not an integer"),
    ("0", ",", "availability must be >= 1"),
    ("-1", "2", "availability must be >= 1"),
    ("1", ",", "length of --r must equal --t"),
])
def test_bounds_refuses_bad_localities_by_flag(capsys, t, r, message):
    assert main(["bounds", "--n", "18", "--k", "8", "--t", t, "--r", r]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_regime_violation_message_names_condition(tmp_path, capsys):
    # scalar order 4 does not divide gcd(kernel size - 1, l - 1) = 4? use l=5:
    # additive kernel has order 5, scalars order 2 -> gcd(4, 4): fine; order 4 fine;
    # force failure with l=4: kernel order 4, scalar order 3, gcd(3, 3) = 3, ok;
    # use additive subgroup of order 2 with scalar order 3: gcd(1, 3) = 1 -> fails.
    args = ["construct", "--variant", "gs96", "--ell", "4", "--m", "1",
            "--group1", "add:gens=1", "--group2", "mul:3",
            "--distance", "2", "--out", str(tmp_path / "z.json")]
    assert main(args) == 1
    assert "thm33" in capsys.readouterr().err


def test_construct_refuses_multiplicative_first_y_tower_pair(tmp_path, capsys, gf9):
    """A y-tower pair is semidirect: the scalars normalize the shifts, not the
    other way round, so thm33 takes the additive group as group1.  The CLI
    names that rule; the library refuses the swapped pair by normalization."""
    out = tmp_path / "m.json"
    args = ["construct", "--variant", "gs96", "--ell", "3", "--m", "1",
            "--group1", "mul:2", "--group2", "add:kernel", "--distance", "2", "--out", str(out)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: thm33 takes the additive group as group1, since it carries r1\n"
    assert not out.exists()
    spec = TowerSpec("gs96", gf9, 1)
    mul, add = parse_group_spec(spec, "mul:2"), parse_group_spec(spec, "add:kernel")
    with pytest.raises(NotASubgroup, match="H2 does not normalize H1"):
        construct_lrc(spec, (mul, add), 2)


def test_construct_refuses_mixed_xz_tower_pair(tmp_path, capsys):
    out = tmp_path / "mixed.json"
    args = ["construct", "--variant", "gs95", "--ell", "3", "--m", "2", "--group1", "norm1:4",
            "--group2", "add:kernel", "--distance", "2", "--out", str(out)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: xz-tower pairs must be norm1/norm1 or add/add (no mixed regime)\n"
    assert not out.exists()


@pytest.mark.parametrize("ell", [2**16 + 1, 2**61 - 1])
@pytest.mark.parametrize("argv", [
    ["construct", "--variant", "gs96", "--m", "1", "--group1", "add:kernel", "--group2", "mul:2",
     "--distance", "2"],
    ["regimes"],
    ["tradeoff", "--r1", "1", "--r2", "3", "--variant", "thm34"],
], ids=lambda argv: argv[0])
def test_oversized_ell_is_refused_before_factoring(tmp_path, capsys, argv, ell):
    """An l above 2^16 is refused at once, before trial division, which
    would not end at 2^61 - 1: one error line and no output."""
    out = tmp_path / "x.json"
    argv = argv + ["--ell", str(ell)] + (["--out", str(out)] if argv[0] == "construct" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: l = {ell} exceeds cap 65536\n"
    assert not out.exists()


def test_ell_at_cap_is_factored(capsys):
    """l = 2^16 is the largest l that is factored: a line is drawn, and
    regimes refuses it by its own cap."""
    assert main(["tradeoff", "--ell", "65536", "--r1", "1", "--r2", "3", "--variant", "thm34"]) == 0
    assert capsys.readouterr().out == ("family thm34 ell=65536 r1=1 r2=3\nslope 4/1 (4)\n"
                                       "intercept 2147418109/2147450880 (0.999984739581)\n")
    assert main(["regimes", "--ell", "65536"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: l capped at 64\n"


def test_exact_distance_cap(tmp_path, capsys, monkeypatch):
    out = tmp_path / "code.json"
    main(GOLDEN_ARGS + ["--out", str(out)])
    monkeypatch.setenv("LRC_MAX_ENUM", "50")
    assert main(["verify", "--in", str(out), "--exact-distance"]) == 1
    assert "exceeds enumeration cap" in capsys.readouterr().err


def test_repair_demo(tmp_path, capsys):
    out = tmp_path / "code.json"
    main(GOLDEN_ARGS + ["--out", str(out)])
    assert main(["repair-demo", "--in", str(out), "--seed", "5"]) == 0
    text = capsys.readouterr().out
    assert "set 1" in text and "set 2" in text and "MISMATCH" not in text


def test_bounds_command(tmp_path, capsys):
    assert main(["bounds", "--n", "18", "--k", "8", "--t", "2", "--r", "2,2",
                 "--csv", str(tmp_path / "b.csv")]) == 0
    out = capsys.readouterr().out
    # bmq was 9 under the old denominator 1 + sum r_i; at equal localities it
    # equals wz
    assert out == "singleton 8\ntb 7\nwz 7\nrpdv 5\nbt 7\nbmq 7\n"
    assert (tmp_path / "b.csv").read_text() == (
        "bound,value\nsingleton,8\ntb,7\nwz,7\nrpdv,5\nbt,7\nbmq,7\n")


def test_bounds_command_on_unequal_localities(capsys):
    """On unequal localities the singleton, tb, wz and rpdv rows take
    r = max(rs), bt the localities in ascending order and bmq rs as given;
    each printed row equals its closed form."""
    assert main(["bounds", "--n", "120", "--k", "40", "--t", "3", "--r", "4,1,2"]) == 0
    assert capsys.readouterr().out == "singleton 72\ntb 70\nwz 70\nrpdv 54\nbt 64\nbmq 58\n"
    for n, k in ((18, 8), (60, 17), (120, 40)):
        for rs in ([3, 1], [1, 3], [2, 5], [4, 1, 2], [1, 1, 6], [3, 3, 2]):
            assert main(["bounds", "--n", str(n), "--k", str(k), "--t", str(len(rs)),
                         "--r", ",".join(map(str, rs))]) == 0
            want = "".join(f"{name} {value}\n" for name, value in bound_formulas(n, k, rs).items())
            assert capsys.readouterr().out == want, (n, k, rs)
    # the three input refusals of the bounds, through the command: k > n,
    # a locality of 0 and an availability of 0
    for argv, message in [(["--k", "19", "--t", "1", "--r", "2"], "need 1 <= k <= n"),
                          (["--k", "8", "--t", "2", "--r", "3,0"], "locality must be >= 1"),
                          (["--k", "8", "--t", "0", "--r", "2"], "availability must be >= 1")]:
        assert main(["bounds", "--n", "18", *argv]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_regimes_command(capsys):
    assert main(["regimes", "--ell", "3"]) == 0
    assert "thm33 r1=2 r2=1" in capsys.readouterr().out


def test_tradeoff_command(tmp_path, capsys):
    assert main(["tradeoff", "--ell", "8", "--r1", "3", "--r2", "1",
                 "--variant", "thm35", "--csv", str(tmp_path / "t.csv")]) == 0
    out = capsys.readouterr().out
    assert "intercept 16/21" in out
    assert (tmp_path / "t.csv").read_text().count("\n") == 2


def test_tradeoff_denominator_zero(capsys):
    assert main(["tradeoff", "--ell", "4", "--r1", "1", "--r2", "1",
                 "--variant", "thm34"]) == 1
    assert "undefined" in capsys.readouterr().err


def test_tradeoff_btv_zero_locality(capsys):
    assert main(["tradeoff", "--ell", "8", "--r1", "0", "--r2", "3",
                 "--variant", "btv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "r1 = 0 or r2 = 0" in err


@pytest.mark.parametrize("argv, message", [
    (["--ell", "8", "--r1", "-1", "--r2", "-1", "--variant", "btv"], "locality must be >= 1"),
    (["--ell", "8", "--r1", "-1", "--r2", "2", "--variant", "thm34"], "locality must be >= 1"),
    (["--ell", "8", "--r1", "0", "--r2", "6", "--variant", "thm33"], "locality must be >= 1"),
    (["--ell", "6", "--r1", "1", "--r2", "2", "--variant", "thm34"], "l = 6 is not a prime power"),
])
def test_tradeoff_rejects_impossible_line(capsys, argv, message):
    """A locality below 1 or an l that is not a prime power has no line: one
    error line, no traceback and no output."""
    assert main(["tradeoff", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


# (entry, field, position in the set or None, bad value) for the golden n=6 code
BAD_RECOVERY_INDICES = [
    (3, "coord", None, -1), (3, "coord", None, 6),
    (0, "set1", 0, -1), (5, "set1", 0, 6),
    (2, "set2", 0, -1), (3, "set2", 0, 6),
]


def _with_bad_index(desc, entry, key, pos, value):
    """The descriptor with one index outside [0, n) and the loader's refusal:
    the entry's coord or set, by path, is not the one the code derives."""
    desc = json.loads(json.dumps(desc))
    path = f"recovery_sets[{entry}].{key}"
    if pos is None:
        desc["recovery_sets"][entry][key] = value
        return desc, f"{path} = {value} is not {entry}"
    want = list(desc["recovery_sets"][entry][key])
    desc["recovery_sets"][entry][key][pos] = value
    return desc, f"{path} = {desc['recovery_sets'][entry][key]} is not the orbit set {want}"


@pytest.mark.parametrize("entry, key, pos, value", BAD_RECOVERY_INDICES)
def test_descriptor_rejects_out_of_range_recovery_index(golden_code, entry, key, pos, value):
    desc, message = _with_bad_index(code_to_descriptor(golden_code), entry, key, pos, value)
    with pytest.raises(ValueError) as exc:
        code_from_descriptor(desc)
    assert str(exc.value) == message


@pytest.mark.parametrize("entry, key, pos, value", BAD_RECOVERY_INDICES)
def test_verify_rejects_out_of_range_recovery_index(tmp_path, capsys, golden_code,
                                                    entry, key, pos, value):
    desc, message = _with_bad_index(code_to_descriptor(golden_code), entry, key, pos, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(desc))
    assert main(["verify", "--in", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


DELETE = object()


def _edit(desc, path, value):
    """Set the entry at JSON ``path`` ("a.b[3].c") to ``value``, or delete
    it for ``DELETE``."""
    steps = [int(x) if x.isdigit() else x for x in re.findall(r"\w+", path)]
    parent = desc
    for step in steps[:-1]:
        parent = parent[step]
    if value is DELETE:
        del parent[steps[-1]]
    else:
        parent[steps[-1]] = value


# every FIELDS path, the objects that hold them, and entries of the lists and
# groups that the table does not name one by one
CHECKED_PATHS = sorted({
    *FIELDS, "field", "tower", "groups", "groups[1]", "dims", "params",
    "groups[0].shifts", "groups[1].scalars",
    "recovery_sets[3].coord", "recovery_sets[3].set1", "recovery_sets[3].set2",
})


@pytest.mark.parametrize("path", CHECKED_PATHS)
def test_verify_rejects_missing_descriptor_key(tmp_path, capsys, golden_code, path):
    """A path that is missing, or holds a value of the wrong type (the string
    "5" is wrong for every kind), fails verify with an error naming it."""
    for value, message in ((DELETE, f"descriptor has no {path}\n"), ("5", f"{path} must be ")):
        desc = code_to_descriptor(golden_code)
        _edit(desc, path, value)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(desc))
        assert main(["verify", "--in", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("top", [[], "x"], ids=["list", "string"])
def test_verify_rejects_non_object_descriptor(tmp_path, capsys, top):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(top))
    assert main(["verify", "--in", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: descriptor must be an object, got {top!r}\n"


@pytest.mark.parametrize("path, value, message", [
    ("recovery_sets[0].set1", 5, "recovery_sets[0].set1 must be a list of integers, got 5"),
    ("recovery_sets[4].set2", [1.5], "recovery_sets[4].set2 must be a list of integers, got [1.5]"),
    ("recovery_sets[2].set1", "12", "recovery_sets[2].set1 must be a list of integers, got '12'"),
    ("places[0]", 5, "places[0] must be a list of integers of length 1, got 5"),
    ("places[3]", [1, 2], "places[3] must be a list of integers of length 1, got [1, 2]"),
    ("places[5]", [[2]], "places[5] must be a list of integers of length 1, got [[2]]"),
])
def test_verify_rejects_malformed_int_list(tmp_path, capsys, golden_code, path, value, message):
    """A recovery set or place that is not a flat list of integers (of the
    tower's m coordinates, for a place) is named by its JSON path."""
    desc = code_to_descriptor(golden_code)
    _edit(desc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(desc))
    assert main(["verify", "--in", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("edit, message", [
    (lambda places: places.insert(2, places.pop(1)), "places[1] = [4] is not the canonical place [2]"),
    (lambda places: places.pop(2), "places[2] = [5] is not the canonical place [4]"),
    (lambda places: places.pop(), "places has 5 entries, the tower has 6 places"),
], ids=["swapped", "dropped", "dropped-last"])
def test_non_canonical_places_are_refused_on_load(tmp_path, capsys, golden_code, edit, message):
    """The places must be the tower's canonical enumeration: a descriptor
    with two places swapped or one dropped is refused on load, by verify and
    by repair-demo, naming the first entry that differs or the count."""
    desc = code_to_descriptor(golden_code)
    edit(desc["places"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(desc))
    for command in ("verify", "repair-demo"):
        assert main([command, "--in", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("path, value, message", [
    ("places[0]", [99], "places[0][0] = 99 out of range for q=9"),
    ("places[4]", [-1], "places[4][0] = -1 out of range for q=9"),
    ("places[2]", [9], "places[2][0] = 9 out of range for q=9"),
    ("recovery_sets[0].coord", "ab", "recovery_sets[0].coord must be an integer, got 'ab'"),
    ("recovery_sets[3].coord", 0.7, "recovery_sets[3].coord must be an integer, got 0.7"),
    ("generator_matrix[1][2]", "x", "generator_matrix[1][2] must be an integer, got 'x'"),
    ("generator_matrix[0][3]", 1.5, "generator_matrix[0][3] must be an integer, got 1.5"),
    ("generator_matrix[1]", [1, 2, 3, 4, 5],
     "generator_matrix[1] has 5 entries, generator_matrix[0] has 6"),
    ("generator_matrix[0][0]", 9, "generator_matrix[0][0] = 9 out of range for q=9"),
    ("generator_matrix[1][5]", -1, "generator_matrix[1][5] = -1 out of range for q=9"),
    ("generator_matrix", [1, 2], "generator_matrix[0] must be a list of integers, got 1"),
    ("params.d_designed", 2.9, "params.d_designed must be an integer, got 2.9"),
    ("params.r1", 2.5, "params.r1 must be an integer, got 2.5"),
    ("params.k", 2.0, "params.k must be an integer, got 2.0"),
    ("params.n", True, "params.n must be an integer, got True"),
    ("tower.m", 1.5, "tower.m must be an integer, got 1.5"),
    ("tower.ell", "3", "tower.ell must be an integer, got '3'"),
    ("field.p", 3.0, "field.p must be an integer, got 3.0"),
    ("field.modulus", [1, 0, 1.0], "field.modulus must be a list of integers, got [1, 0, 1.0]"),
    ("groups[0].shifts", [0.4, 3, 6], "groups[0].shifts must be a list of integers, got [0.4, 3, 6]"),
    ("groups[1].scalars", [1, 2.0], "groups[1].scalars must be a list of integers, got [1, 2.0]"),
    # consistency of the parameter block with the matrix and the recovery sets
    ("params.k", 1, "params.k = 1 does not match the row count 2 of generator_matrix"),
    ("params.n", 5, "params.n = 5 does not match the 6 places"),
    ("generator_matrix", [[1, 2, 3], [4, 5, 6]],
     "params.n = 6 does not match the column count 3 of generator_matrix"),
    ("recovery_sets[0]", DELETE, "recovery_sets[0].coord = 1 is not 0"),
    ("recovery_sets[4].coord", 2, "recovery_sets[4].coord = 2 is not 4"),
    ("places", 5, "places must be a list, got 5"),
    ("recovery_sets", {"coord": 0}, "recovery_sets must be a list, got {'coord': 0}"),
    # the dims block: integers, and caps a list of one integer per tower level or null
    ("dims.budget", 2.5, "dims.budget must be an integer, got 2.5"),
    ("dims.dim_v1", "4", "dims.dim_v1 must be an integer, got '4'"),
    ("dims.dim_sum", True, "dims.dim_sum must be an integer, got True"),
    ("dims.dim_v2", DELETE, "descriptor has no dims.dim_v2"),
    ("dims.caps", "ab", "dims.caps must be a list of integers of length 1, got 'ab'"),
    ("dims.caps", [1.0], "dims.caps must be a list of integers of length 1, got [1.0]"),
    ("dims.caps", [1, 2], "dims.caps must be a list of integers of length 1, got [1, 2]"),
    ("dims.caps", DELETE, "descriptor has no dims.caps"),
    ("dims", DELETE, "descriptor has no dims"),
    # the parameter block against the groups, and dims.budget against n - d_designed
    ("params.r1", 5, "params.r1 = 5 does not match the locality 2 of groups[0]"),
    ("params.r2", 4, "params.r2 = 4 does not match the locality 1 of groups[1]"),
    ("params.d_designed", 3, "dims.budget = 4 does not match n - d_designed = 3"),
    ("dims.budget", 1, "dims.budget = 1 does not match n - d_designed = 4"),
    # a JSON true among the generator's integers, and values outside a path's set
    ("generator_matrix[0][1]", True, "generator_matrix[0][1] must be an integer, got True"),
    ("tower.variant", ["gs96"], "tower.variant must be one of 'gs96', 'gs95', got ['gs96']"),
    ("groups[1].kind", "bogus",
     "groups[1].kind must be one of 'additive', 'multiplicative', got 'bogus'"),
    ("format", "lrc-descriptor/2", "format must be one of 'lrc-descriptor/1', got 'lrc-descriptor/2'"),
    # a group's element list is the whole subgroup, in order
    ("groups[0].shifts", [0, 3], "groups[0].shifts does not match the canonical subgroup"),
    ("groups[1].scalars", [1, 5], "groups[1].scalars does not match the canonical subgroup"),
    # a modulus coefficient is not reduced mod p
    ("field.modulus", [4, 0, 1], "field.modulus = [4, 0, 1] is not the modulus [1, 0, 1] of GF(9)"),
    # a huge characteristic is refused before any primality test
    ("field.p", 2**61 - 1, f"characteristic {2**61 - 1} exceeds cap 65536"),
    # the format is exactly what FIELDS states: two groups, and no key it does not name
    ("groups", [{"kind": "additive", "shifts": [0, 3, 6]}, {"kind": "multiplicative", "scalars": [1, 2]},
                {"kind": "bogus"}], "groups must hold 2 entries, got 3"),
    ("extra", 1, "descriptor has unknown key 'extra'"),
    ("field.x", 1, "field has unknown key 'x'"),
    ("tower.depth", 2, "tower has unknown key 'depth'"),
    ("dims.rank", 2, "dims has unknown key 'rank'"),
    ("params.q", 9, "params has unknown key 'q'"),
    ("groups[0].scalars", [1], "groups[0] has unknown key 'scalars'"),
    ("recovery_sets[0].set3", [1, 2], "recovery_sets[0] has unknown key 'set3'"),
    # an irreducible modulus other than the first one: GF(9) is named by (p, k) alone
    ("field.modulus", [2, 1, 1], "field.modulus = [2, 1, 1] is not the modulus [1, 0, 1] of GF(9)"),
    # the tower's l is the field's
    ("tower.ell", 5, "tower.ell = 5 does not match the field's l = 3"),
])
def test_verify_rejects_bad_descriptor_entry(tmp_path, capsys, golden_code, path, value, message):
    """A place coordinate outside [0, q), a coord that is not an integer, and
    a generator entry that is not an integer in [0, q) or sits in a ragged
    row are named by their JSON path; none is truncated or wrapped.  So is a
    float, bool or string where the descriptor holds an integer, and a
    parameter block at odds with the code it describes: params.k must be the
    generator's row count, params.n its column count and the place count,
    params.r1 and params.r2 the groups' localities, dims.budget must be
    n - params.d_designed, and recovery_sets must list coordinate i's
    orbit sets as entry i.  The dims block is read the same way: golden
    is at level m = 1, so its caps, when not null, hold one integer.  A
    third group, or a key the format does not name (in a recovery_sets
    entry too), is refused by path, and so is a field.modulus other than the
    one (p, k) fix, or a tower.ell other than the field's l."""
    desc = code_to_descriptor(golden_code)
    _edit(desc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(desc))
    assert main(["verify", "--in", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_descriptor_seed_is_unread(golden_code):
    """``seed`` records the construct run: the loader takes any value, or none."""
    want = json_text(code_to_descriptor(golden_code)).encode()
    for seed in ("x", DELETE):
        desc = code_to_descriptor(golden_code)
        _edit(desc, "seed", seed)
        assert json_text(code_to_descriptor(code_from_descriptor(desc))).encode() == want


@pytest.mark.parametrize("edits, message", [
    pytest.param({"params.d_designed": -3, "dims.budget": 9},
                 "params.d_designed = -3 is not in [1, n] = [1, 6]", id="d_designed-below"),
    pytest.param({"params.d_designed": 7, "dims.budget": -1},
                 "params.d_designed = 7 is not in [1, n] = [1, 6]", id="d_designed-above"),
    pytest.param({"dims.dim_v1": 40},
                 "dims.dim_v1 + dims.dim_v2 - dims.dim_sum = 38 does not match k = 2", id="dim_v1"),
    pytest.param({"dims.dim_v1": 1, "dims.dim_v2": 1, "dims.dim_sum": 0},
                 "dims.dim_sum = 0 is not in [max(dim_v1, dim_v2), n] = [1, 6]", id="dim_sum-low"),
    pytest.param({"dims.dim_v1": 5, "dims.dim_v2": 4, "dims.dim_sum": 7},
                 "dims.dim_sum = 7 is not in [max(dim_v1, dim_v2), n] = [5, 6]", id="dim_sum-high"),
])
def test_verify_rejects_inconsistent_design(tmp_path, capsys, golden_code, edits, message):
    """params.d_designed lies in [1, n] even when dims.budget moves with it,
    and the dims block obeys k = dim_v1 + dim_v2 - dim_sum with
    max(dim_v1, dim_v2) <= dim_sum <= n."""
    desc = code_to_descriptor(golden_code)
    for path, value in edits.items():
        _edit(desc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(desc))
    assert main(["verify", "--in", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda groups: groups[::-1], "H2 does not normalize H1", id="swapped"),
    pytest.param(lambda groups: [groups[1], groups[1]],
                 "groups share 2 elements; only the identity is allowed", id="scalars-twice"),
])
def test_verify_refuses_bad_group_pair_on_load(tmp_path, capsys, golden_code, edit, message):
    """The loader checks the pair with ``combine``: the golden groups
    swapped (shifts do not normalize the scalars), or the scalar group given
    twice, fail verify by name."""
    desc = code_to_descriptor(golden_code)
    desc["groups"] = edit(desc["groups"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(desc))
    assert main(["verify", "--in", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.err


# (variant, ell, m, group1, group2): builds that take milliseconds
SMALL_BUILDS = [
    ("gs96", 3, 1, "add:kernel", "mul:2"),
    ("gs96", 3, 2, "add:kernel", "mul:2"),
    ("gs96", 4, 1, "add:kernel", "mul:3"),
    ("gs96", 5, 1, "add:kernel", "mul:4"),
    ("gs95", 5, 1, "norm1:2", "norm1:3"),
    ("gs95", 3, 2, "add:kernel", "norm1:4"),
]
FIELD_OF_ELL = {3: (3, 2), 4: (2, 4), 5: (5, 2)}


@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data())
def test_descriptor_round_trip_is_byte_exact(data):
    """construct -> descriptor -> load -> descriptor gives the same bytes."""
    variant, ell, m, g1, g2 = data.draw(st.sampled_from(SMALL_BUILDS))
    spec = TowerSpec(variant, FiniteField(*FIELD_OF_ELL[ell]), m)
    h1, h2 = parse_group_spec(spec, g1), parse_group_spec(spec, g2)
    distance, seed = data.draw(st.integers(1, len(spec.places()))), data.draw(st.integers(0, 99))
    try:
        code = construct_lrc(spec, (h1, h2), distance)
    except LrcError:  # the budget cannot host the groups, or the code is empty
        assume(False)
    blob = json_text(code_to_descriptor(code, seed)).encode()
    assert json_text(code_to_descriptor(code_from_descriptor(json.loads(blob)), seed)).encode() == blob


def test_descriptor_reports_dims_before_params(tmp_path, capsys, golden_code):
    # the code is built, dims checked with it, before the parameter block is
    # compared with what the code derives
    desc = code_to_descriptor(golden_code)
    desc["params"]["n"], desc["dims"]["budget"] = 7, 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(desc))
    assert main(["verify", "--in", str(bad)]) == 1
    assert capsys.readouterr().err == "error: dims.budget = 1 does not match n - d_designed = 4\n"


def test_verify_distance_flags_are_exclusive(tmp_path, capsys, golden_code):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(code_to_descriptor(golden_code)))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--in", str(path), "--exact-distance", "--skip-distance"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--skip-distance: not allowed with argument --exact-distance" in err
    for flag, line in (("--exact-distance", "distance 4 (designed 2) pass"),
                       ("--skip-distance", "distance skipped")):
        assert main(["verify", "--in", str(path), flag]) == 0
        assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("coord", ["-1", "6"])
def test_repair_demo_rejects_out_of_range_coord(tmp_path, capsys, coord):
    out = tmp_path / "code.json"
    main(GOLDEN_ARGS + ["--out", str(out)])
    assert main(["repair-demo", "--in", str(out), "--coord", coord]) == 1
    assert f"error: coordinate {coord} out of range for n=6" in capsys.readouterr().err


def test_repair_demo_rejects_params_n_mismatch(tmp_path, capsys, golden_code):
    # params.n = 7 over 6 places: coordinate 6 passes a range check on n but
    # has no recovery sets. A descriptor saying so is refused on load by both
    # commands; in memory n is the spec's place count, and a 7th generator
    # column without a 7th place is refused; the recovery sets are derived, not given
    message = "error: params.n = 7 does not match the 6 places\n"
    desc = code_to_descriptor(golden_code)
    desc["params"]["n"] = 7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(desc))
    for command in (["repair-demo", "--in", str(bad), "--coord", "6"], ["verify", "--in", str(bad)]):
        assert main(command) == 1
        assert capsys.readouterr().err == message
    with pytest.raises(ValueError, match="params.n = 6 does not match the column count 7 of generator_matrix"):
        dataclasses.replace(golden_code, generator_matrix=golden_code.generator_matrix[:, [*range(6), 0]])


def _session(out_dir, capsys):
    """All six subcommands in one process, a usage error and a refusal
    among them: each call's (exit code, stdout, stderr), and every file
    written by name (a report without its runtimes)."""
    golden, ytower = out_dir / "g.json", out_dir / "y.json"
    calls = [
        GOLDEN_ARGS + ["--out", str(golden)],
        ["verify", "--in", str(golden), "--report", str(out_dir / "g.report.json")],
        ["construct", "--variant", "gs96", "--ell", "3"],  # usage error: required flags missing
        ["repair-demo", "--in", str(golden), "--seed", "5"],
        ["construct", *GOLDEN_ARGS[1:4], "6", *GOLDEN_ARGS[5:], "--out", str(out_dir / "six.json")],
        ["bounds", "--n", "18", "--k", "8", "--t", "2", "--r", "2,2", "--csv", str(out_dir / "b.csv")],
        ["regimes", "--ell", "4", "--csv", str(out_dir / "r.csv")],
        ["tradeoff", "--ell", "8", "--r1", "3", "--r2", "1", "--variant", "thm35",
         "--csv", str(out_dir / "t.csv")],
        ["construct", *DESCRIPTOR_PINS["ytower18"][0], "--out", str(ytower), "--verbose"],
        ["verify", "--in", str(ytower), "--skip-distance", "--report", str(out_dir / "y.report.json")],
        ["verify", "--in", str(golden)],
    ]
    results, files = [], {}
    for argv in calls:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        results.append((rc, captured.out, captured.err))
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name.endswith(".report.json"):
            report = json.loads(data)
            report.pop("runtimes")
            data = json.dumps(report, sort_keys=True).encode()
        files[path.name] = data
    return results, files


def test_shared_parser_runs_like_a_fresh_one(tmp_path, capsys, monkeypatch):
    """A process that runs every subcommand on the one shared parser, with a
    usage error (exit 2) and an LrcError refusal between good calls, prints
    and writes what a fresh parser per call does."""
    (tmp_path / "shared").mkdir()
    (tmp_path / "fresh").mkdir()
    shared = _session(tmp_path / "shared", capsys)
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    fresh = _session(tmp_path / "fresh", capsys)
    assert shared == fresh
    calls, files = shared
    assert [rc for rc, _, _ in calls] == [0, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0]
    assert calls[2][2].startswith("usage: lrctower construct")
    assert calls[4][2] == "error: l = 6 is not a prime power\n"
    assert sorted(files) == ["b.csv", "g.json", "g.report.json", "r.csv", "t.csv", "y.json", "y.report.json"]
    assert hashlib.sha256(files["g.json"]).hexdigest() == DESCRIPTOR_PINS["golden"][1]
    assert hashlib.sha256(files["y.json"]).hexdigest() == DESCRIPTOR_PINS["ytower18"][1]


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    """The first main() builds the parser; no later call, good or refused,
    builds another."""
    built = []

    class Spy(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(cli, "argparse", types.SimpleNamespace(ArgumentParser=Spy))
    build_parser.cache_clear()
    try:
        out = tmp_path / "g.json"
        for _ in range(3):
            assert main(GOLDEN_ARGS + ["--out", str(out)]) == 0
            assert main(["verify", "--in", str(out)]) == 0
            assert main(["regimes", "--ell", "6"]) == 1
            with pytest.raises(SystemExit):
                main(["verify"])
        assert built.count("lrctower") == 1
    finally:
        build_parser.cache_clear()  # the next main() builds a real parser
    capsys.readouterr()


def test_parser_is_not_built_on_import():
    code = "import lrctower.cli as c; print(c.build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == "0\n"


def test_loads_and_construct_share_one_field(tmp_path, monkeypatch):
    """Two loads of one descriptor and a construct at the same l all read
    the process's one GF(9)."""
    out = tmp_path / "g.json"
    assert main(GOLDEN_ARGS + ["--out", str(out)]) == 0
    a, b = load_code(out), load_code(out)
    assert a.field is b.field is shared_field(3, 2)
    seen = []

    def spy(spec, *rest):
        seen.append(spec.field)
        return construct_lrc(spec, *rest)

    monkeypatch.setattr(cli, "construct_lrc", spy)
    assert main(GOLDEN_ARGS + ["--out", str(tmp_path / "again.json")]) == 0
    assert seen[0] is a.field
    assert FiniteField(3, 2) is not a.field


def _swap_entries(sets):
    sets[1], sets[2] = sets[2], sets[1]


def _other_coordinates_set(sets):
    sets[0]["set1"] = sets[3]["set1"]


def _swap_set_keys(sets):
    sets[0]["set1"], sets[0]["set2"] = sets[0]["set2"], sets[0]["set1"]


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda sets: sets[0].update(set1=[4, 2]),
                 "recovery_sets[0].set1 = [4, 2] is not the orbit set [2, 4]", id="reordered"),
    pytest.param(_other_coordinates_set,
                 "recovery_sets[0].set1 = [5, 1] is not the orbit set [2, 4]", id="another-coordinates-set"),
    pytest.param(_swap_set_keys, "recovery_sets[0].set1 = [1] is not the orbit set [2, 4]", id="sets-swapped"),
    pytest.param(_swap_entries, "recovery_sets[1].coord = 2 is not 1", id="entries-swapped"),
    pytest.param(lambda sets: sets[5].update(set2=[4, 0]),
                 "recovery_sets[5].set2 = [4, 0] is not the orbit set [2]", id="too-large"),
    pytest.param(lambda sets: sets[4].update(set1=[]),
                 "recovery_sets[4].set1 = [] is not the orbit set [0, 2]", id="empty"),
    pytest.param(lambda sets: sets.pop(), "recovery_sets has 5 entries, the code has 6 coordinates", id="dropped"),
    pytest.param(lambda sets: sets.append(dict(sets[0])),
                 "recovery_sets has 7 entries, the code has 6 coordinates", id="extra-entry"),
    # Python reads true as 1 and 4.0 as 4; the types are checked, not only the values
    pytest.param(lambda sets: sets[0].update(set2=[True]),
                 "recovery_sets[0].set2 must be a list of integers, got [True]", id="bool-member"),
    pytest.param(lambda sets: sets[0].update(set1=[2, 4.0]),
                 "recovery_sets[0].set1 must be a list of integers, got [2, 4.0]", id="float-member"),
    pytest.param(lambda sets: sets[1].update(coord=True),
                 "recovery_sets[1].coord must be an integer, got True", id="bool-coord"),
    pytest.param(lambda sets: sets.__setitem__(2, 5), "recovery_sets[2] must be an object, got 5",
                 id="non-object"),
    pytest.param(lambda sets: sets.__setitem__(2, [2, [4, 0], [5]]),
                 "recovery_sets[2] must be an object, got [2, [4, 0], [5]]", id="list-entry"),
    pytest.param(lambda sets: sets[2].update(note="x"), "recovery_sets[2] has unknown key 'note'", id="extra-key"),
])
def test_recovery_sets_other_than_the_orbits_are_refused_on_load(tmp_path, capsys, golden_code, edit, message):
    """``recovery_sets`` must be the layout the code derives from its groups'
    orbits, entry i holding coordinate i's two sets in element order: any
    other list is refused on load by verify and repair-demo, with one error
    line naming the first entry that differs (or the count) and no traceback."""
    desc = code_to_descriptor(golden_code)
    assert [e["set1"] for e in desc["recovery_sets"]][3] == [5, 1]
    edit(desc["recovery_sets"])
    with pytest.raises(ValueError) as err:
        code_from_descriptor(json.loads(json.dumps(desc)))
    assert str(err.value) == message
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(desc))
    for command in ("verify", "repair-demo"):
        assert main([command, "--in", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("name, caps, message", [
    # each sums to the ytower18 split's beta = budget 12 // pole weight 3 = 4, or not
    ("ytower18", [3, 0], "dims.caps = [3, 0] is not a cap split of budget 12"),
    ("ytower18", [0, 0], "dims.caps = [0, 0] is not a cap split of budget 12"),
    ("ytower18", [9, 9], "dims.caps = [9, 9] is not a cap split of budget 12"),
    ("ytower18", [2, 1], "dims.caps = [2, 1] is not a cap split of budget 12"),
    ("ytower18", [4, 1], "dims.caps = [4, 1] is not a cap split of budget 12"),
    ("ytower18", None, "dims.caps = null is not a cap split of budget 12"),
    ("golden", [1], "dims.caps = [1] is not a cap split of budget 4"),
    # other splits of the same beta load; ROADMAP item 2's pole-divisor certificate would decide them
    ("ytower18", [2, 2], None),
    ("ytower18", [4, 0], None),
])
def test_dims_caps_must_be_a_cap_split(tmp_path, capsys, golden_code, tower_code, name, caps, message):
    """dims.caps must be one of the splits construction searches for the
    budget (``_cap_profiles``), and null exactly where that list is [None];
    verify refuses any other in one error line."""
    desc = code_to_descriptor({"golden": golden_code, "ytower18": tower_code}[name])
    desc["dims"]["caps"] = caps
    if message is None:
        assert code_from_descriptor(desc).dims.caps == tuple(caps)
        return
    with pytest.raises(ValueError) as err:
        code_from_descriptor(desc)
    assert str(err.value) == message
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(desc))
    assert main(["verify", "--in", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
