"""Span tracing of sesame's layers, installed from outside the program.

``install`` wraps each traced function and rebinds every name that refers
to it in the loaded ``sesame`` modules: the defining module and each
caller that imported it, such as ``javaparse.lex_states``,
``separators.lex_states``, ``textmerge.diff2`` and the recursive
``treemerge.merge_matched``.  ``uninstall`` restores the originals.

Each call is one span.  A span's self time is its duration minus the time
of the spans it encloses; the wrapper's own bookkeeping, counters included,
is charged to neither.  Totals are kept per op, in memory.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _lex_bytes(counts, args, result):
    counts["bytes"] += len(args[0])


def _members(counts, args, result):
    stack = [result]
    while stack:
        node = stack.pop()
        counts["members"] += 1
        stack.extend(node.children)


def _mark_lines(counts, args, result):
    text = args[0]
    counts["lines_in"] += text.count(b"\n") + (not text.endswith(b"\n"))
    counts["lines_out"] += len(result.lines)


def _diff_lines(counts, args, result):
    counts["lines"] += len(args[0]) + len(args[1])
    counts["matched"] += 2 * result.match_count()


def _conflicts(counts, args, result):
    counts["conflicts"] += result.conflict_count()


def _fallbacks(counts, args, result):
    counts["fallbacks"] += result.fell_back


# (module, function, counter run on each call's arguments and result)
LAYERS = (
    ("lexer", "lex_states", _lex_bytes),
    ("javaparse", "parse_units", None),
    ("treemerge", "match_trees", _members),
    ("treemerge", "merge_matched", None),
    ("separators", "mark", _mark_lines),
    ("separators", "merge_body", None),
    ("textdiff", "diff2", _diff_lines),
    ("textmerge", "merge3", _conflicts),
    ("textmerge", "render", None),
    ("textmerge", "count_conflicts", None),
    ("driver", "run_engine", _fallbacks),
    ("driver", "merge_files", None),
    ("cli", "main", None),
    ("harness", "load_scenarios", None),
    ("harness", "build_report", None),
)

LAYER_NAMES = tuple(f"{module}.{func}" for module, func, _ in LAYERS)


class Tracer:
    """Per-op span totals: ``stats[layer]`` maps counter names to values.

    Every layer has ``calls``, ``self_s`` and ``errors`` (calls that
    raised); the counters in ``LAYERS`` add their own names.
    """

    def __init__(self) -> None:
        self._stack: list[list[float]] = []  # per open span: [child time]
        self.stats: dict[str, dict[str, float]] = {}
        self._saved: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        self.stats = {name: defaultdict(float) for name in LAYER_NAMES}

    def wrap(self, name: str, fn, counter):
        stack = self._stack

        def traced(*args, **kwargs):
            stats = self.stats[name]
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stats["errors"] += 1
                raise
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if counter is not None:
                t1 = perf_counter()
                counter(stats, args, result)
                if stack:
                    stack[-1][0] += perf_counter() - t1
            return result

        return traced

    def install(self) -> None:
        import sesame.cli  # noqa: F401  (loads every module the layers live in)

        modules = [m for n, m in sys.modules.items()
                   if n == "sesame" or n.startswith("sesame.")]
        for module_name, func, counter in LAYERS:
            original = getattr(sys.modules[f"sesame.{module_name}"], func)
            traced = self.wrap(f"{module_name}.{func}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

