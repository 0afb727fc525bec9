"""Run the benchmark repeatedly and report how much its end-to-end metrics spread.

    python3 perfbench/steadiness.py --runs 10 --first-seed 1 --out set1.json
    python3 perfbench/steadiness.py --runs 10 --first-seed 101 --out set2.json --compare set1.json

Each run is ``run.py`` in its own process with its own ``--seed``.  For each
workload and metric it prints the median of the runs and the spread, the
distance between the first and third quartile as a share of the median.  With
``--compare`` it also prints how far this set's median moved from another
set's, and marks a metric whose spread or move exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out", required=True, help="JSON file for the runs' metrics")
    ap.add_argument("--compare", help="a file written by an earlier set")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    runs: dict[str, dict[str, list[float]]] = {}
    bad = 0
    for w in args.workloads:
        runs[w] = {m: [] for m in bounds}
        for k in range(args.runs):
            cmd = spec["command"] + [
                "--workload", w, "--seed", str(args.first_seed + k),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else None
            if proc.returncode != 0 or result is None or not result["correct"]:
                print(f"{w} seed {args.first_seed + k}: failed\n{proc.stderr}", file=sys.stderr)
                return 1
            for m in bounds:
                runs[w][m].append(result["metrics"][m]["value"])
        for m, vals in runs[w].items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            line = f"{w:18} {m:14} median {med:.6g}  spread {spread:.3f} (bound {bounds[m]})"
            flag = spread > bounds[m] and m != "setup_s"
            if w in earlier:
                before = statistics.median(earlier[w][m])
                moved = statistics.median(vals) / before - 1
                line += f"  moved {moved:+.3f}"
                flag = flag or moved > bounds[m]
            bad += flag
            print(line + ("  OVER" if flag else ""), flush=True)
    Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
