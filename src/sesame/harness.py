"""Merge-scenario replay and engine comparison.

A scenario directory materializes one historical merge: ``base/``,
``left/``, ``right/`` hold the three input versions and ``merge/`` the
integration actually recorded in the repository.  The harness replays
every file through the selected engines, counts conflicts and conflicting
files, and compares engines pairwise.  Each file where two engines disagree
gets one comparison record, which holds both engines' results and the
recorded merge: it is classified as an added false positive or negative
against the recorded merge, or queued for manual review when neither rule
applies.  Files where the engines agree get no record.

Each file is parsed and matched once for all structured engines: when
any of them is selected, the harness matches the file's versions before
the engines run, and every structured engine merges from the matched
versions, or from the exception that parsing raised.  A parse failure
therefore still counts once per structured engine, as a fallback or, with
fallback off, as an engine error.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .driver import DriverConfig, EngineMode, match_versions, run_engine

VERSION_DIRS = ("base", "left", "right", "merge")

_WHITESPACE = b" \t\r\n\x0b\x0c"

AFP_M = "afp-m"
AFN_M = "afn-m"
AFP_N = "afp-n"
AFN_N = "afn-n"
UNCLASSIFIED = "unclassified"


class ScenarioError(ValueError):
    """A scenario directory does not follow the expected layout."""


@dataclass
class FileEntry:
    path: str
    base: bytes | None
    left: bytes | None
    right: bytes | None
    merge: bytes | None


@dataclass
class MergeScenario:
    id: str
    files: list[FileEntry]


@dataclass
class ToolResult:
    tool: str
    scenario: str
    path: str
    output: bytes
    conflicts: int
    fell_back: bool = False
    error: str | None = None

    @property
    def conflicting(self) -> bool:
        return self.conflicts >= 1


@dataclass
class ComparisonRecord:
    """Two engines' differing results on one file, and the recorded merge."""

    m: ToolResult
    n: ToolResult
    merge: bytes | None
    classification: str = UNCLASSIFIED
    reason: str = ""


def load_scenarios(root: str | Path) -> list[MergeScenario]:
    """Load every scenario directory under ``root``, sorted by name.

    Hidden entries, those whose path below the root or below a version
    directory has a part starting with '.', are skipped.
    """
    root = Path(root)
    scenarios: list[MergeScenario] = []
    for entry in sorted(
        p for p in root.iterdir() if p.is_dir() and not p.name.startswith(".")
    ):
        for sub in VERSION_DIRS:
            if not (entry / sub).is_dir():
                raise ScenarioError(
                    f"scenario {entry.name!r} is missing the {sub}/ directory"
                )
        paths: set[str] = set()
        for sub in VERSION_DIRS:
            base_dir = entry / sub
            for file in base_dir.rglob("*"):
                parts = file.relative_to(base_dir).parts
                if file.is_file() and not any(part.startswith(".") for part in parts):
                    paths.add("/".join(parts))
        files = [
            FileEntry(
                rel,
                _read_opt(entry / "base" / rel),
                _read_opt(entry / "left" / rel),
                _read_opt(entry / "right" / rel),
                _read_opt(entry / "merge" / rel),
            )
            for rel in sorted(paths)
        ]
        scenarios.append(MergeScenario(entry.name, files))
    return scenarios


def _read_opt(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def run_tools(
    scenario: MergeScenario,
    modes: list[EngineMode],
    config: DriverConfig | None = None,
) -> list[ToolResult]:
    """Merge every file of a scenario with every engine.

    An absent base is treated as an empty file; a file present on exactly
    one of left/right is adopted verbatim without merging.  The structured
    engines share one parse and match of each file.  Engine errors are
    recorded on the result, not raised.
    """
    config = config or DriverConfig()
    structured = any(mode is not EngineMode.UNSTRUCTURED for mode in modes)
    results: list[ToolResult] = []
    for entry in scenario.files:
        one_sided = (entry.left is None) != (entry.right is None)
        if one_sided and entry.base is None:
            adopted = entry.left if entry.left is not None else entry.right
            results.extend(
                ToolResult(mode.value, scenario.id, entry.path, adopted, 0)
                for mode in modes
            )
            continue
        versions = (entry.base or b"", entry.left or b"", entry.right or b"")
        matched = match_versions(*versions) if structured else None  # never raises
        for mode in modes:
            tool = mode.value
            try:
                result = run_engine(*versions, replace(config, mode=mode), matched)
            except Exception as exc:  # engine errors stay per-file
                results.append(
                    ToolResult(tool, scenario.id, entry.path, b"", 0, error=str(exc))
                )
                continue
            results.append(ToolResult(
                tool, scenario.id, entry.path, result.output, result.conflicts,
                fell_back=result.fell_back,
            ))
    return results


def strip_whitespace(data: bytes) -> bytes:
    return data.translate(None, _WHITESPACE)


def tools_differ(r1: ToolResult, r2: ToolResult) -> bool:
    """Engines differ on a file when conflict counts differ, or counts are
    equal but the outputs differ after removing every whitespace byte."""
    if r1.conflicts != r2.conflicts:
        return True
    return strip_whitespace(r1.output) != strip_whitespace(r2.output)


def classify(
    m: ToolResult, n: ToolResult, merge_file: bytes | None
) -> ComparisonRecord:
    """Classify a differing result pair against the recorded merge.

    aFP for a tool: it alone reports conflicts while the other tool's clean
    output matches the recorded merge (ignoring whitespace).  aFN for a
    tool: its clean output deviates from the recorded merge while the other
    tool reports conflicts.  Anything else, including a pair in which an
    engine failed, is queued as unclassified.
    """
    record = ComparisonRecord(m, n, merge_file)
    if m.error or n.error:
        record.reason = "engine error"
    elif merge_file is None:
        record.reason = "no merge-commit file"
    elif m.conflicting == n.conflicting:
        record.reason = (
            "both tools report conflicts"
            if m.conflicting
            else "neither tool reports conflicts"
        )
    else:
        clean, afp, afn = (n, AFP_M, AFN_N) if m.conflicting else (m, AFP_N, AFN_M)
        matches = strip_whitespace(clean.output) == strip_whitespace(merge_file)
        record.classification = afp if matches else afn
    return record


@dataclass
class PairTotals:
    tool_m: str
    tool_n: str
    differ_count: int = 0
    afp: dict[str, int] = field(default_factory=dict)
    afn: dict[str, int] = field(default_factory=dict)
    unclassified: int = 0

    def differ_percent(self, total_files: int) -> float:
        if not total_files:
            return 0.0
        return 100.0 * self.differ_count / total_files


@dataclass
class ToolTotals:
    tool: str
    merge_conflicts: int = 0
    conflicting_files: int = 0
    errors: int = 0
    fallbacks: int = 0


@dataclass
class MetricsReport:
    scenarios: int
    files_total: int
    files_changed_both_sides: int
    per_tool: dict[str, ToolTotals]
    per_pair: dict[tuple[str, str], PairTotals]
    records: list[ComparisonRecord]


def build_report(
    scenarios: list[MergeScenario],
    results: list[ToolResult],
    pairs: list[tuple[str, str]],
) -> MetricsReport:
    by_key = {(r.tool, r.scenario, r.path): r for r in results}
    changed_both = 0
    files_total = 0
    for scenario in scenarios:
        for entry in scenario.files:
            files_total += 1
            base = entry.base or b""
            if (entry.left or b"") != base and (entry.right or b"") != base:
                changed_both += 1
    per_tool: dict[str, ToolTotals] = {}
    for result in results:
        totals = per_tool.setdefault(result.tool, ToolTotals(result.tool))
        totals.merge_conflicts += result.conflicts
        totals.conflicting_files += 1 if result.conflicting else 0
        totals.errors += 1 if result.error else 0
        totals.fallbacks += 1 if result.fell_back else 0
    per_pair: dict[tuple[str, str], PairTotals] = {}
    records: list[ComparisonRecord] = []
    for tool_m, tool_n in pairs:
        totals = PairTotals(tool_m, tool_n)
        totals.afp = {tool_m: 0, tool_n: 0}
        totals.afn = {tool_m: 0, tool_n: 0}
        per_pair[(tool_m, tool_n)] = totals
        for scenario in scenarios:
            for entry in scenario.files:
                m = by_key.get((tool_m, scenario.id, entry.path))
                n = by_key.get((tool_n, scenario.id, entry.path))
                if m is None or n is None or not tools_differ(m, n):
                    continue
                totals.differ_count += 1
                record = classify(m, n, entry.merge)
                records.append(record)
                if record.classification == AFP_M:
                    totals.afp[tool_m] += 1
                elif record.classification == AFP_N:
                    totals.afp[tool_n] += 1
                elif record.classification == AFN_M:
                    totals.afn[tool_m] += 1
                elif record.classification == AFN_N:
                    totals.afn[tool_n] += 1
                else:
                    totals.unclassified += 1
    return MetricsReport(
        len(scenarios), files_total, changed_both, per_tool, per_pair, records
    )


def render_report(report: MetricsReport) -> str:
    """Stable text serialization: key=value records plus a readable table."""
    lines: list[str] = []
    lines.append("# merge harness report")
    lines.append(f"scenarios={report.scenarios}")
    lines.append(f"files_total={report.files_total}")
    lines.append(f"files_changed_both_sides={report.files_changed_both_sides}")
    for tool, totals in report.per_tool.items():
        lines.append("")
        lines.append(f"[tool {tool}]")
        lines.append(f"merge_conflicts={totals.merge_conflicts}")
        lines.append(f"conflicting_files={totals.conflicting_files}")
        lines.append(f"engine_errors={totals.errors}")
        lines.append(f"parse_fallbacks={totals.fallbacks}")
    for (tool_m, tool_n), totals in report.per_pair.items():
        lines.append("")
        lines.append(f"[pair {tool_m}:{tool_n}]")
        lines.append(f"differ_count={totals.differ_count}")
        lines.append(
            f"differ_percent={totals.differ_percent(report.files_total):.2f}"
        )
        lines.append(f"afp_{tool_m}={totals.afp[tool_m]}")
        lines.append(f"afn_{tool_m}={totals.afn[tool_m]}")
        lines.append(f"afp_{tool_n}={totals.afp[tool_n]}")
        lines.append(f"afn_{tool_n}={totals.afn[tool_n]}")
        lines.append(f"unclassified={totals.unclassified}")
    lines.append("")
    lines.append("tool            conflicts  conflicting_files")
    for tool, totals in report.per_tool.items():
        lines.append(
            f"{tool:<15} {totals.merge_conflicts:>9}  {totals.conflicting_files:>17}"
        )
    lines.append("")
    lines.append("pair                              differ  differ%   aFP(M) aFN(M) aFP(N) aFN(N)")
    for (tool_m, tool_n), totals in report.per_pair.items():
        name = f"{tool_m}:{tool_n}"
        lines.append(
            f"{name:<33} {totals.differ_count:>6}  {totals.differ_percent(report.files_total):>6.2f}%"
            f"  {totals.afp[tool_m]:>6} {totals.afn[tool_m]:>6}"
            f" {totals.afp[tool_n]:>6} {totals.afn[tool_n]:>6}"
        )
    lines.append("")
    return "\n".join(lines)


def export_queue(report: MetricsReport, queue_dir: str | Path) -> int:
    """Write side-by-side outputs for records needing manual review.

    Unclassified records and added-false-negative candidates are exported;
    the harness never adjudicates them.
    """
    queue_dir = Path(queue_dir)
    exported = 0
    for record in report.records:
        if record.classification not in (UNCLASSIFIED, AFN_M, AFN_N):
            continue
        m, n = record.m, record.n
        # percent-encoding '%' and '/' keeps distinct paths apart
        slug = m.path.replace("%", "%25").replace("/", "%2F")
        case_dir = queue_dir / f"{m.scenario}__{slug}__{m.tool}_vs_{n.tool}"
        case_dir.mkdir(parents=True, exist_ok=True)
        (case_dir / f"{m.tool}.out").write_bytes(m.output)
        (case_dir / f"{n.tool}.out").write_bytes(n.output)
        if record.merge is not None:
            (case_dir / "merge_commit").write_bytes(record.merge)
        info = (
            f"scenario: {m.scenario}\n"
            f"path: {m.path}\n"
            f"pair: {m.tool} vs {n.tool}\n"
            f"classification: {record.classification}\n"
            f"reason: {record.reason}\n"
            f"conflicts: {m.tool}={m.conflicts} {n.tool}={n.conflicts}\n"
        )
        (case_dir / "info.txt").write_text(info, encoding="utf-8")
        exported += 1
    return exported


def run_harness(
    root: str | Path,
    tools: list[EngineMode],
    pairs: list[tuple[EngineMode, EngineMode]],
    out_path: str | Path | None = None,
    queue_dir: str | Path | None = None,
    config: DriverConfig | None = None,
) -> MetricsReport:
    scenarios = load_scenarios(root)
    results: list[ToolResult] = []
    for scenario in scenarios:
        results.extend(run_tools(scenario, tools, config))
    pair_names = [(m.value, n.value) for m, n in pairs]
    report = build_report(scenarios, results, pair_names)
    if out_path is not None:
        Path(out_path).write_text(render_report(report), encoding="utf-8")
    if queue_dir is not None:
        count = export_queue(report, queue_dir)
        print(f"exported {count} review case(s) to {queue_dir}", file=sys.stderr)
    return report
