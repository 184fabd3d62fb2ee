"""Ladder benchmark for lrctower.

    python3 perfbench/run.py --workload build|distance|repair --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The library is imported from ``src/`` of
that checkout and reached only through its public functions and the CLI's
``main()``.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The line before it (``{"info": ...}``) records the environment, the raw
(uncorrected) figures, calibration and the per-code trace breakdown.  Exit status is 0 only
when every output matched its pinned truth.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import calibrate, spans, stats  # noqa: E402
from perfbench.workloads import WORKLOADS, Runner  # noqa: E402

OUT = ROOT / ".perfbench_out"


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _import_library():
    """Import lrctower from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lrctower.cli  # noqa: F401
    except ImportError as exc:
        return None, f"cannot import lrctower from {src}: {exc}"
    where = Path(sys.modules["lrctower"].__file__).resolve()
    if src.resolve() not in where.parents:
        return None, f"lrctower was imported from {where}, not from {src}"
    return sys.modules["lrctower"], None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
    }


class Uncorrected:
    """Stands in for a Calibrator to give raw CPU-clock figures."""

    @staticmethod
    def corrected(start, end):
        return np.asarray(end, dtype=float) - np.asarray(start, dtype=float)


def end_to_end(cal, log) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric keyed by name -> (value, unit); times are
    drift-corrected by ``cal``."""
    def per_round(calls):
        """Median over rounds of the sum over codes of each code's median call."""
        rnd, code, a, b = zip(*calls)
        by_code = {}
        for key, sec in zip(zip(rnd, code), cal.corrected(a, b)):
            by_code.setdefault(key, []).append(sec)
        rounds = {}
        for (r, _), secs in by_code.items():
            rounds[r] = rounds.get(r, 0.0) + stats.median(secs)
        return stats.median(rounds.values())

    def corrected(sections):
        return cal.corrected(np.frombuffer(sections.start), np.frombuffer(sections.end))

    def throughput(sections):
        return float(np.median(np.frombuffer(sections.symbols) / corrected(sections)))

    setup = [float(x) for x in corrected(log.setup)]
    lat_us = corrected(log.repair) * 1e6
    # Repairs through set 1 and set 2 form two clusters (their sets differ in
    # size), and reads alternate between them, so the pooled median falls in
    # the gap and jumps between the clusters' tails.  The mean of the two
    # sets' medians is the steady central figure.
    sets = np.frombuffer(log.repair_set, dtype=np.int8)
    p50 = (stats.percentile(lat_us[sets == 1], 50) + stats.percentile(lat_us[sets == 2], 50)) / 2
    return {
        "setup_s": (stats.median(setup), "s"),
        "construct_s": (per_round(log.construct), "s"),
        "verify_s": (per_round(log.verify), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "encode_sym_per_s": (throughput(log.encode), "sym/s"),
        "repair_p50_us": (p50, "us"),
        "repair_p99_us": (stats.percentile(lat_us, 99), "us"),
        "repair_sym_per_s": (throughput(log.bulk), "sym/s"),
    }


def _unit(name: str) -> str:
    special = {"descriptor.bytes": "B", "gflinalg.rref_cells": "cells",
               "field.vec_elems": "elems", "repair.distance_cw_per_s": "cw/s"}
    return special.get(name, "s" if name.endswith("_s") else "count")


def per_layer(cal, log, tracer) -> tuple[dict[str, tuple[float, str]], dict]:
    """Per-layer metrics: the median over rounds, plus a per-code breakdown
    of the last round."""
    round_idx = spans.SpanView(tracer, 0, len(tracer)).ids("round")
    bounds = list(round_idx) + [len(tracer)]
    rows = []
    for rnd, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        view = spans.SpanView(tracer, int(lo), int(hi))
        t0, t1 = view.start[0], view.end[0]
        scale = float(cal.factor(t0, t1))
        row = spans.layer_metrics(view, np.ones(view.name.size, dtype=bool), scale)
        rep = [(code, rt) for r, code, rt in log.reports if r == rnd]
        for key in ("integrity", "locality", "repair", "distance"):
            metric = "repair.roundtrip_s" if key == "repair" else f"repair.{key}_s"
            row[metric] = sum(rt.get(key, 0.0) for _, rt in rep) * scale
        covered = sum(code.q ** code.k for code, rt in rep if "distance" in rt)
        row["repair.distance_cw_per_s"] = covered / row["repair.distance_s"] if covered else 0.0
        rows.append(row)
    metrics = {k: (stats.median([r[k] for r in rows]), _unit(k)) for k in rows[0]}

    lo = int(bounds[-2])
    view = spans.SpanView(tracer, lo, len(tracer))
    phase_of = view.ancestor_of({"phase"})
    scale = float(cal.factor(view.start[0], view.end[0]))
    detail = {}
    for p in view.ids("phase"):
        code, phase = tracer.tags[int(p) + lo]
        mask = phase_of == p
        counts = spans.layer_metrics(view, mask, scale)
        detail.setdefault(code, {})[phase] = {k: round(v, 6) for k, v in counts.items() if v}
    return metrics, detail


def _latest_untraced(workload: str) -> dict | None:
    files = sorted((OUT / "results").glob(f"{workload}-trace0-*.json"), key=lambda p: p.stat().st_mtime)
    for path in reversed(files):
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            continue
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if "LRC_MAX_ENUM" in os.environ:
        return _fail("LRC_MAX_ENUM is set; it changes whether verify enumerates the "
                     "distance at all, so the ladder would not be comparable. Unset it.")
    lib, err = _import_library()
    if lib is None:
        return _fail(err)

    env = environment(args)
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    cal = calibrate.Calibrator()
    tracer = spans.Tracer(cal.now) if args.trace else None
    runner = Runner(workdir, workload, args.seed, cal, tracer)
    absent = []
    try:
        cal.start()
        try:
            runner.setup()
            gc.collect()
            if tracer is None:
                runner.run(args.seconds)
            else:
                with spans.instrument(tracer) as absent:
                    runner.run(args.seconds)
        finally:
            cal.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    log = runner.log
    e2e = end_to_end(cal, log)
    rounds = [float(x) for x in cal.corrected(np.frombuffer(log.rounds.start), np.frombuffer(log.rounds.end))]
    info = {
        **env,
        "rounds": len(log.rounds),
        "round_s": stats.median(rounds),
        "repair_samples": len(log.repair),
        "fail_ratio": log.failed / log.attempted,
        "problems": log.problems[:20],
        "calibration": {"samples": cal.samples, "mean_kernel_us": cal.mean_kernel_s() * 1e6,
                        "ref_kernel_us": calibrate.REF_KERNEL_S * 1e6},
        "raw": {k: v for k, (v, _) in end_to_end(Uncorrected, log).items()},
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
    }
    if tracer is None:
        metrics = e2e
    else:
        metrics, detail = per_layer(cal, log, tracer)
        info["spans"] = len(tracer)
        info["absent"] = absent
        info["detail"] = detail
        base = _latest_untraced(args.workload)
        if base is not None:
            info["trace_overhead"] = {
                k: info["end_to_end"][k] / base["info"]["end_to_end"][k] - 1
                for k in ("construct_s", "verify_s") if base["info"]["end_to_end"].get(k)
            }
            info["trace_overhead"]["round_s"] = info["round_s"] / base["info"]["round_s"] - 1

    for name, (value, unit) in e2e.items():
        print(f"{name:>18} {value:14.6g} {unit}")
    print(f"{'fail_ratio':>18} {info['fail_ratio']:14.6g} ({log.failed}/{log.attempted})")
    for p in log.problems[:20]:
        print(f"FAIL {p}")
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    stamp = f"{args.workload}-trace{args.trace}-seed{args.seed}-{time.time_ns()}"
    (OUT / "results" / f"{stamp}.json").write_text(json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
