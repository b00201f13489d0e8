"""Run one generated workload in this process and print its figures as JSON.

Usage: ``python perfbench/worker.py MANIFEST --seconds S --trace 0|1``
with the checkout's ``src`` on ``PYTHONPATH``.  ``run.py`` starts it as a
child process, so the peak memory it reports belongs to one workload.

Ops run through ``sesame.cli.main`` in a fixed order that spreads sizes;
passes repeat until ``--seconds`` is used up, the last one stopping part
way, and each op's figure is its median over the passes that ran it.
Each op's time, and the self times traced inside it, are scaled to the
reference machine speed measured around and during the op (see ``calib``).
Every op's exit code and output are checked after it is timed.  With
``--trace 1`` one untraced pass comes first, then traced passes whose
outputs must equal the untraced ones byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from calib import SpeedMeter
from spans import LAYER_NAMES, Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    manifest = json.loads(Path(args.manifest).read_text())
    result = run(manifest["ops"], args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def run(ops: list[dict], seconds: float, trace: bool) -> dict:
    """Measure ``ops`` for about ``seconds``; returns counts and metrics."""
    from sesame import cli

    log = Log()
    meter = SpeedMeter(interval=0.01)
    # one untimed op first, so lazy set-up inside the program is not timed;
    # a failure here shows again, and is counted, in the timed passes
    with contextlib.suppress(Exception), contextlib.redirect_stderr(io.StringIO()):
        cli.main(ops[0]["argv"])
    deadline = perf_counter() + seconds
    untraced = None
    tracer = None
    if trace:
        untraced = run_pass(ops, cli, meter, log, keep_outputs=True)
        tracer = Tracer()
        tracer.install()
    passes: list[Pass] = []
    try:
        # the first timed pass always completes; later ones stop at the
        # deadline, so a slow machine still spends its time on samples
        while not passes or passes[-1].complete and perf_counter() < deadline:
            passes.append(run_pass(ops, cli, meter, log, tracer, untraced,
                                   deadline=deadline if passes else None))
    finally:
        if tracer is not None:
            tracer.uninstall()
    n = len(ops)

    def per_op(field: str) -> list[float]:
        return [
            statistics.median(getattr(p, field)[k] for p in passes if k in p.times)
            for k in range(n)
        ]

    info = {
        "ops": n,
        "passes": len(passes),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "raw_op_ms_p50": statistics.median(per_op("raw")) * 1000,
    }
    if trace:
        metrics = layer_metrics(ops, [p for p in passes if p.complete], untraced)
    else:
        metrics, tail_info = end_to_end_metrics(ops, per_op("times"))
        info.update(tail_info)
    return {
        "attempted": sum(len(p.times) for p in passes) + (n if trace else 0),
        "failed": log.failed,
        "failures": log.messages[:20],
        "info": info,
        "metrics": metrics,
    }


class Log:
    def __init__(self) -> None:
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, op: dict, why: str) -> None:
        self.failed += 1
        self.messages.append(f"{op['id']}: {why}")


class Pass:
    """One run over the ops; every field is keyed by op index."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.times: dict[int, float] = {}  # in reference seconds
        self.raw: dict[int, float] = {}  # in measured seconds
        self.scales: dict[int, float] = {}  # traced seconds -> reference
        self.outputs: dict[int, bytes] = {}  # kept only when asked for
        self.stats: dict[int, dict] = {}  # layer -> counters (traced only)

    @property
    def complete(self) -> bool:
        return len(self.times) == self.n

    @property
    def seconds(self) -> float:
        """Total op time in reference seconds."""
        return sum(self.times.values())


def spread_order(n: int) -> list[int]:
    """Op indices in golden-ratio order: every prefix spans all sizes."""
    return sorted(range(n), key=lambda k: (k * 0.6180339887498949) % 1.0)


def run_pass(
    ops: list[dict],
    cli,
    meter: SpeedMeter,
    log: Log,
    tracer: Tracer | None = None,
    untraced: Pass | None = None,
    keep_outputs: bool = False,
    deadline: float | None = None,
) -> Pass:
    """Run each op once, or until ``deadline``; a traced pass compares its
    outputs with the ``untraced`` ones."""
    result = Pass(len(ops))
    fixtures: dict[str, int] = {}
    for k in spread_order(len(ops)):
        if deadline is not None and perf_counter() >= deadline:
            return result
        op = ops[k]
        out = Path(op["out"])
        out.unlink(missing_ok=True)
        gc.collect()
        if tracer is not None:
            tracer.begin_op()
        error = None
        stderr = io.StringIO()
        try:
            with meter, contextlib.redirect_stderr(stderr):
                rc = cli.main(op["argv"])
        except (Exception, SystemExit):
            rc, error = None, traceback.format_exc(limit=3)
        result.raw[k] = meter.raw
        result.times[k] = meter.scaled
        # traced spans also cover the sampler's share of the op
        result.scales[k] = meter.scaled / meter.elapsed
        output = out.read_bytes() if out.exists() else b""
        if keep_outputs:
            result.outputs[k] = output
        if tracer is not None:
            result.stats[k] = tracer.stats
        # no op should warn: a parse fallback would measure the wrong path
        why = error or stderr.getvalue().strip() or check(op, rc, output, fixtures)
        if not why and untraced is not None and output != untraced.outputs[k]:
            why = "traced output differs from the untraced one"
        if why:
            log.fail(op, why)
    fixture_ops = [op for op in ops if op.get("group") == "fixtures"]
    for key, want in workloads.FIXTURE_TOTALS.items():
        if fixture_ops and fixtures.get(key) != want:
            for op in fixture_ops:
                log.fail(op, f"fixture total {key}={fixtures.get(key)}, want {want}")
            break
    return result


def check(op: dict, rc, output: bytes, fixtures: dict[str, int]) -> str | None:
    """Why the op's result is wrong, or None when it matches the reference."""
    if rc != op["rc"]:
        return f"exit code {rc}, want {op['rc']}"
    if "report" in op:
        got = workloads.parse_report(output.decode("utf-8"))
        for key, want in op["report"].items():
            if got.get(key) != want:
                return f"report {key}={got.get(key)}, want {want}"
        if op.get("group") == "fixtures":
            for key in workloads.FIXTURE_TOTALS:
                fixtures[key] = fixtures.get(key, 0) + got.get(key, 0)
        return None
    conflicts = sum(1 for line in output.split(b"\n") if line.startswith(b"<<<<<<<"))
    if conflicts != op["conflicts"]:
        return f"{conflicts} conflicts, want {op['conflicts']}"
    if op["reference"] and output != Path(op["reference"]).read_bytes():
        return "clean output differs from the reference"
    return None


def end_to_end_metrics(ops: list[dict], per_op: list[float]) -> tuple[dict, dict]:
    n = len(per_op)
    idx = max(0, n - 11)  # the highest sorted index with 10 values beyond it
    kb = sum(op["bytes"] for op in ops) / 1024
    metrics = {
        "op_ms_p50": (statistics.median(per_op) * 1000, "ms"),
        "op_ms_tail": (sorted(per_op)[idx] * 1000, "ms"),
        "kb_per_s": (kb / sum(per_op), "KB/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    return _as_json(metrics), {"tail_percentile": 100 * (idx + 1) / n, "tail_samples": n}


def layer_metrics(ops: list[dict], passes: list[Pass], untraced: Pass) -> dict:
    """Per-layer figures: medians over traced passes of per-pass totals."""
    for p in passes:
        for k, op_stats in p.stats.items():
            for counters in op_stats.values():
                counters["self_s"] *= p.scales[k]
    totals = []
    for p in passes:
        sums: dict[str, dict[str, float]] = {}
        for op_stats in p.stats.values():
            for layer, counters in op_stats.items():
                acc = sums.setdefault(layer, {})
                for key, value in counters.items():
                    acc[key] = acc.get(key, 0) + value
        totals.append(sums)

    def med(layer: str, key: str) -> float:
        return statistics.median(t.get(layer, {}).get(key, 0) for t in totals)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    input_bytes = sum(op["bytes"] for op in ops)
    m: dict[str, tuple[float, str]] = {}
    m["lexer.lex_states.calls"] = (med("lexer.lex_states", "calls"), "count")
    m["lexer.lex_states.bytes"] = (med("lexer.lex_states", "bytes"), "bytes")
    m["lexer.relex_ratio"] = (ratio(med("lexer.lex_states", "bytes"), input_bytes), "ratio")
    m["javaparse.parse_units.calls"] = (med("javaparse.parse_units", "calls"), "count")
    m["javaparse.parse_units.errors"] = (med("javaparse.parse_units", "errors"), "count")
    m["treemerge.match_trees.members"] = (med("treemerge.match_trees", "members"), "count")
    m["treemerge.merge_matched.calls"] = (med("treemerge.merge_matched", "calls"), "count")
    m["separators.mark.calls"] = (med("separators.mark", "calls"), "count")
    m["separators.mark.line_growth"] = (
        ratio(med("separators.mark", "lines_out"), med("separators.mark", "lines_in")),
        "ratio",
    )
    m["separators.merge_body.calls"] = (med("separators.merge_body", "calls"), "count")
    m["textdiff.diff2.calls"] = (med("textdiff.diff2", "calls"), "count")
    m["textdiff.diff2.lines"] = (med("textdiff.diff2", "lines"), "count")
    m["textdiff.diff2.match_ratio"] = (
        ratio(med("textdiff.diff2", "matched"), med("textdiff.diff2", "lines")), "ratio"
    )
    m["textmerge.merge3.calls"] = (med("textmerge.merge3", "calls"), "count")
    m["textmerge.merge3.conflicts"] = (med("textmerge.merge3", "conflicts"), "count")
    m["driver.fallbacks"] = (med("driver.run_engine", "fallbacks"), "count")
    for layer in LAYER_NAMES:
        m[f"{layer}.self_ms"] = (med(layer, "self_s") * 1000, "ms")
    traced_s = statistics.median(p.seconds for p in passes)
    m["trace.overhead_ratio"] = (traced_s / untraced.seconds - 1, "ratio")

    # self time per KB in the smallest and largest quarter of the ops
    order = sorted(range(len(ops)), key=lambda k: ops[k]["bytes"])
    q = max(1, len(ops) // 4)
    for layer in LAYER_NAMES:
        per_kb = {}
        for bucket, members in (("small", order[:q]), ("large", order[-q:])):
            self_s = sum(
                statistics.median(p.stats[k][layer]["self_s"] for p in passes)
                for k in members
            )
            kb = sum(ops[k]["bytes"] for k in members) / 1024
            per_kb[bucket] = self_s * 1e6 / kb
            m[f"{layer}.us_per_kb.{bucket}"] = (per_kb[bucket], "us/KB")
        m[f"{layer}.scale"] = (ratio(per_kb["large"], per_kb["small"]), "ratio")
    return _as_json(m)


def _as_json(metrics: dict[str, tuple[float, str]]) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
