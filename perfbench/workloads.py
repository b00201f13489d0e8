"""Workload definitions: size grids, on-disk layout and expected results.

``build`` writes one workload's inputs under a work directory and returns
the manifest the worker runs.  Each op is one ``sesame`` command line:

* ``merge`` ops name base, left, right and an output file, plus the
  planted conflict count and, for a clean merge, a reference file;
* ``harness run`` ops name a directory that holds one scenario, plus the
  report values the harness must print for it.

The grids are fixed; the seed only chooses contents and edit positions.
Sizes are spaced geometrically, since source files are spread that way.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
FIXTURE_SCENARIOS = ROOT / "tests" / "fixtures" / "scenarios"

TOOLS = ("unstructured", "semistructured", "sesame")
PAIRS = (("unstructured", "sesame"), ("semistructured", "sesame"))

# Totals over the ten fixture scenarios, as the harness tests pin them.
FIXTURE_TOTALS = {
    "/files_changed_both_sides": 6,
    "tool unstructured/merge_conflicts": 6,
    "tool semistructured/merge_conflicts": 5,
    "tool sesame/merge_conflicts": 2,
    "tool unstructured/conflicting_files": 6,
    "tool semistructured/conflicting_files": 5,
    "tool sesame/conflicting_files": 2,
    "pair unstructured:sesame/differ_count": 5,
    "pair unstructured:sesame/afp_unstructured": 3,
    "pair unstructured:sesame/afp_sesame": 0,
    "pair unstructured:sesame/afn_unstructured": 0,
    "pair unstructured:sesame/afn_sesame": 1,
    "pair unstructured:sesame/unclassified": 1,
    "pair semistructured:sesame/differ_count": 4,
    "pair semistructured:sesame/afp_semistructured": 2,
    "pair semistructured:sesame/afp_sesame": 0,
    "pair semistructured:sesame/afn_semistructured": 0,
    "pair semistructured:sesame/afn_sesame": 1,
    "pair semistructured:sesame/unclassified": 1,
}

# one replay file kind per generated file, cycling
_REPLAY_KINDS = (
    gen.ONE_SIDED, gen.DISJOINT, gen.ONE_SIDED, gen.BOTH_ADD, gen.DISJOINT,
    gen.SEPARATOR, gen.ONE_SIDED, gen.DISJOINT, gen.SEPARATOR, gen.TRUE_CONFLICT,
)

# (ops, smallest size, largest size) per workload; tiny grids serve the self-check
GRIDS = {
    "large-class": ((32, 200, 2000), (4, 10, 30)),
    "long-body": ((32, 500, 3000), (4, 30, 80)),
    "divergent": ((32, 500, 3000), (4, 40, 120)),
    "replay": ((150, 5, 45), (6, 5, 12)),
}


def geometric(n: int, lo: int, hi: int) -> list[int]:
    return [round(lo * (hi / lo) ** (k / (n - 1))) for k in range(n)]


def build(name: str, seed: int, work: Path, tiny: bool = False) -> dict:
    """Generate workload ``name`` under ``work``; returns the manifest."""
    n, lo, hi = GRIDS[name][tiny]
    sizes = geometric(n, lo, hi)
    ops: list[dict] = []
    for k, size in enumerate(sizes):
        rng = random.Random(f"{name}/{seed}/{k}")
        op_dir = work / f"op{k:03d}"
        op_dir.mkdir(parents=True)
        if name == "large-class":
            case = gen.large_class_case(rng, size, plant_conflict=k % 4 == 3)
            ops.append(_merge_op(op_dir, case, "sesame"))
        elif name == "long-body":
            case = gen.long_body_case(rng, size, planted=(0, 1, 0, 2)[k % 4])
            ops.append(_merge_op(op_dir, case, "sesame"))
        elif name == "divergent":
            # the top size is the share-nothing case: one side rewrites it all
            fraction = 1.0 if k == n - 1 else (0.25, 0.5)[k % 2]
            case = gen.divergent_case(rng, size, fraction, conflict=k % 3 == 2)
            ops.append(_merge_op(op_dir, case, "unstructured"))
        else:
            ops.append(_replay_op(op_dir, rng, k, size))
    if name == "replay":
        for scenario in sorted(p for p in FIXTURE_SCENARIOS.iterdir() if p.is_dir()):
            op_dir = work / f"fixture-{scenario.name}"
            shutil.copytree(scenario, op_dir / scenario.name)
            ops.append(_fixture_op(op_dir))
    return {"workload": name, "seed": seed, "ops": ops}


def _merge_op(op_dir: Path, case: gen.MergeCase, mode: str) -> dict:
    paths = {v: op_dir / f"{v}.java" for v in ("base", "left", "right", "out")}
    for version in ("base", "left", "right"):
        paths[version].write_bytes(getattr(case, version))
    ref = None
    if case.reference is not None:
        ref = op_dir / "reference.java"
        ref.write_bytes(case.reference)
    return {
        "id": op_dir.name,
        "argv": ["merge", str(paths["base"]), str(paths["left"]),
                 str(paths["right"]), "-o", str(paths["out"]), "--mode", mode],
        "out": str(paths["out"]),
        "bytes": case.input_bytes,
        "rc": 1 if case.conflicts else 0,
        "conflicts": case.conflicts,
        "reference": None if ref is None else str(ref),
    }


def _replay_op(op_dir: Path, rng: random.Random, k: int, size: int) -> dict:
    """One generated scenario of 1-5 small files of varied kinds."""
    scenario = op_dir / f"g{k:03d}"
    files = []
    for j in range(1 + k % 5):
        kind = _REPLAY_KINDS[(5 * k + j) % len(_REPLAY_KINDS)]
        members = max(5, size + 3 * j)
        rf = gen.replay_file(rng, members, kind, f"C{k}x{j}")
        for version in ("base", "left", "right", "merge"):
            path = scenario / version / "src" / f"C{k}x{j}.java"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(getattr(rf, version))
        files.append(rf)
    nbytes = sum(len(f.base) + len(f.left) + len(f.right) for f in files)
    return _harness_op(op_dir, _replay_expectation(files), nbytes)


def _fixture_op(op_dir: Path) -> dict:
    (scenario,) = list(op_dir.iterdir())
    expect = {"/scenarios": 1, "/files_total": 1}
    for tool in TOOLS:
        expect[f"tool {tool}/engine_errors"] = 0
    nbytes = sum(
        p.stat().st_size
        for version in ("base", "left", "right")
        for p in (scenario / version).rglob("*")
        if p.is_file()
    )
    op = _harness_op(op_dir, expect, nbytes)
    op["group"] = "fixtures"
    return op


def _harness_op(op_dir: Path, expect: dict, nbytes: int) -> dict:
    out = op_dir / "report.txt"
    return {
        "id": op_dir.name,
        "argv": ["harness", "run", str(op_dir), "--out", str(out)],
        "out": str(out),
        "bytes": nbytes,
        "rc": 0,
        "report": expect,
    }


def _replay_expectation(files: list[gen.ReplayFile]) -> dict:
    expect = {
        "/scenarios": 1,
        "/files_total": len(files),
        "/files_changed_both_sides": sum(
            f.left != f.base and f.right != f.base for f in files
        ),
    }
    for t, tool in enumerate(TOOLS):
        counts = [gen.REPLAY_EXPECT[f.kind][0][t] for f in files]
        expect[f"tool {tool}/merge_conflicts"] = sum(counts)
        expect[f"tool {tool}/conflicting_files"] = sum(c > 0 for c in counts)
        expect[f"tool {tool}/engine_errors"] = 0
        expect[f"tool {tool}/parse_fallbacks"] = 0
    for p, (m, n) in enumerate(PAIRS):
        verdicts = [gen.REPLAY_EXPECT[f.kind][1][p] for f in files]
        key = f"pair {m}:{n}"
        expect[f"{key}/differ_count"] = sum(v != "agree" for v in verdicts)
        expect[f"{key}/afp_{m}"] = verdicts.count("afp-m")
        expect[f"{key}/afn_{m}"] = 0
        expect[f"{key}/afp_{n}"] = 0
        expect[f"{key}/afn_{n}"] = 0
        expect[f"{key}/unclassified"] = verdicts.count("unclassified")
    return expect


def parse_report(text: str) -> dict:
    """Key=value lines of a harness report, keyed by ``section/key``."""
    values: dict[str, int | str] = {}
    section = ""
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
        elif "=" in line and not line.startswith("#"):
            key, _, value = line.partition("=")
            values[f"{section}/{key}"] = int(value) if value.isdigit() else value
    return values
