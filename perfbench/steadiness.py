"""Run the benchmark several times and report how much each metric spreads.

    python3 perfbench/steadiness.py --workload build --runs 10 [--first-seed 1] [--trace 0]

Each run uses the next seed.  For every metric the table gives the median,
the quartile spread (Q3 - Q1) / median as statistics.quantiles(n=4) gives
it, and the bound from BENCHMARK.json; ``steady`` means the spread is below
a third of the bound.  The runs' result lines go to
.perfbench_out/steadiness-<workload>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        results.append(json.loads(lines[-1]))
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()),
              flush=True)

    out = ROOT / ".perfbench_out" / f"steadiness-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"{'metric':<32}{'median':>14}{'spread':>10}{'bound':>8}  steady")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = stats.median(values)
        spread = stats.quartile_spread(values) if med else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else ("yes" if spread < bound / 3 else "NO")
        print(f"{name:<32}{med:>14.6g}{spread:>10.4f}{bound if bound is not None else '':>8}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
