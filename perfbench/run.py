"""Seeded end-to-end benchmark of the sesame merge tool.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The script generates the workload's
input files from the seed under ``.perfbench-work/``, times the CLI's cold
start (``setup_s``), runs the ops in a child process (``worker.py``) and
deletes the generated files again.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
with the end-to-end metrics under ``--trace 0`` and the per-layer ones
under ``--trace 1``.  Earlier lines repeat the figures for people.

Workloads: ``large-class``, ``long-body``, ``divergent`` and ``replay``;
see ``README.md`` beside this file for what each one stresses.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from calib import SpeedMeter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_STARTS = 15
CHILD_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("large-class", "long-body", "divergent", "replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (SRC / "sesame" / "cli.py", workloads.FIXTURE_SCENARIOS):
        if not needed.exists():
            print(f"perfbench: not a sesame checkout, missing {needed}", file=sys.stderr)
            return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def measure(args: argparse.Namespace, work: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    manifest = workloads.build(args.workload, args.seed, work)
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest))

    setup_s, raw_setup_s, setup_ok = (
        (None, None, True) if args.trace else cold_starts(work, env)
    )

    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(manifest_path),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 2
    result = json.loads(proc.stdout.decode("utf-8").splitlines()[-1])
    metrics = result["metrics"]
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    for message in result["failures"]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)

    info = result["info"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace}"
          f" python={info['python']} nproc={info['nproc']}"
          f" ops={info['ops']} passes={info['passes']}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"raw op_ms_p50 = {info['raw_op_ms_p50']:.6g} ms before scaling")
    if raw_setup_s is not None:
        print(f"raw setup_s = {raw_setup_s:.6g} s before scaling")
    if "tail_percentile" in info:
        print(f"op_ms_tail is p{info['tail_percentile']:.1f}"
              f" of {info['tail_samples']} per-op medians")
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.4g}")
    print(json.dumps({
        "correct": failed == 0 and setup_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def cold_starts(work: Path, env: dict) -> tuple[float, float, bool]:
    """Median wall time of ``python -m sesame.cli merge`` on an identical
    triple, in reference and in measured seconds, and whether all merged."""
    triple = work / "setup"
    triple.mkdir()
    text = b"class Same {\n  int x;\n}\n"
    names = [triple / f"{v}.java" for v in ("base", "left", "right")]
    for path in names:
        path.write_bytes(text)
    out = triple / "out.java"
    argv = [sys.executable, "-m", "sesame.cli", "merge", *map(str, names), "-o", str(out)]
    times, raw = [], []
    ok = True
    meter = SpeedMeter()
    for _ in range(SETUP_STARTS):
        with meter:
            rc = subprocess.run(argv, cwd=ROOT, env=env, check=False).returncode
        raw.append(meter.raw)
        times.append(meter.scaled)
        ok = ok and rc == 0 and out.read_bytes() == text
        out.unlink(missing_ok=True)
    if not ok:
        print("perfbench: FAILED cold-start merge", file=sys.stderr)
    return statistics.median(times), statistics.median(raw), ok


if __name__ == "__main__":
    sys.exit(main())
