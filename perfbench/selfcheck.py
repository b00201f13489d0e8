"""Fast self-check of the benchmark at tiny sizes.

Usage, from the root of a checkout (takes a few seconds)::

    python3 perfbench/selfcheck.py

It checks that the same seed gives byte-identical inputs and another seed
different ones, that every version of every ``large-class`` and
``long-body`` file parses (so no op measures the fallback path), and that
every op of every workload matches its reference, untraced and traced,
with identical outputs both ways.  It also checks that the metric names
the worker reports are the ones ``BENCHMARK.json`` lists.  Exits 1 and
names each problem when a check fails.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import worker
import workloads

ROOT = workloads.ROOT
WORK = ROOT / ".perfbench-work" / "selfcheck"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from sesame.javaparse import ParseError, parse_units

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]} - {"setup_s"}
    problems: list[str] = []
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            first = workloads.build(workload, 7, WORK / workload / "a", tiny=True)
            workloads.build(workload, 7, WORK / workload / "b", tiny=True)
            workloads.build(workload, 8, WORK / workload / "c", tiny=True)
            inputs = [_files(WORK / workload / d) for d in "abc"]
            if inputs[0] != inputs[1]:
                problems.append(f"{workload}: seed 7 gave different inputs twice")
            if inputs[0] == inputs[2]:
                problems.append(f"{workload}: seeds 7 and 8 gave the same inputs")
            if workload in ("large-class", "long-body"):
                for op in first["ops"]:
                    for path in op["argv"][1:4]:
                        try:
                            parse_units(Path(path).read_bytes())
                        except ParseError as exc:
                            problems.append(f"{workload}: {path} does not parse: {exc}")
            for trace in (False, True):
                result = worker.run(first["ops"], 0, trace)
                problems.extend(f"{workload}: {m}" for m in result["failures"])
                names = set(result["metrics"])
                want = per_layer if trace else end_to_end
                if names != want:
                    problems.append(
                        f"{workload}: trace={trace} reports {sorted(names ^ want)}"
                        " unlike BENCHMARK.json"
                    )
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck: ok" if not problems else f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


def _files(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


if __name__ == "__main__":
    sys.exit(main())
