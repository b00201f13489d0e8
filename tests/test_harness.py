"""Scenario loading, engine comparison, classification, and reporting."""

import random
import re
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from sesame import driver, harness, javaparse
from sesame.cli import main
from sesame.driver import DriverConfig, EngineMode, run_engine
from sesame.harness import (
    AFN_M,
    AFN_N,
    AFP_M,
    AFP_N,
    UNCLASSIFIED,
    ComparisonRecord,
    FileEntry,
    MergeScenario,
    ScenarioError,
    ToolResult,
    build_report,
    classify,
    export_queue,
    load_scenarios,
    render_report,
    run_harness,
    run_tools,
    strip_whitespace,
    tools_differ,
)

U, S, X = EngineMode.UNSTRUCTURED, EngineMode.SEMISTRUCTURED, EngineMode.SESAME
CFG = DriverConfig(labels=("left", "base", "right"))


def result(tool="a", conflicts=0, output=b"", path="F.java", scenario="s", error=None):
    return ToolResult(tool, scenario, path, output, conflicts, error=error)


# -- loading -------------------------------------------------------------------

def test_load_empty_root(tmp_path):
    assert load_scenarios(tmp_path) == []


def test_load_requires_version_dirs(tmp_path):
    broken = tmp_path / "broken"
    for sub in ("base", "left", "right"):  # merge/ missing
        (broken / sub).mkdir(parents=True)
    with pytest.raises(ScenarioError) as err:
        load_scenarios(tmp_path)
    assert "broken" in str(err.value)


def test_load_union_of_paths(tmp_path):
    s = tmp_path / "s1"
    for sub in ("base", "left", "right", "merge"):
        (s / sub).mkdir(parents=True)
    (s / "base" / "A.java").write_bytes(b"a")
    (s / "left" / "A.java").write_bytes(b"a2")
    (s / "right" / "A.java").write_bytes(b"a")
    (s / "merge" / "A.java").write_bytes(b"a2")
    (s / "left" / "New.java").write_bytes(b"n")
    (s / "merge" / "New.java").write_bytes(b"n")
    scenarios = load_scenarios(tmp_path)
    assert len(scenarios) == 1
    entries = {e.path: e for e in scenarios[0].files}
    assert set(entries) == {"A.java", "New.java"}
    new = entries["New.java"]
    assert new.base is None and new.right is None
    assert new.left == b"n" and new.merge == b"n"


def test_load_synthetic_dataset(scenarios_dir):
    scenarios = load_scenarios(scenarios_dir)
    assert [s.id for s in scenarios] == [
        "s01_identical",
        "s02_method_addition",
        "s03_extract_constant",
        "s04_chained_call",
        "s05_both_rewrite",
        "s06_one_sided",
        "s07_same_line",
        "s08_delete_vs_modify",
        "s09_added_file",
        "s10_fallback",
    ]
    added = next(s for s in scenarios if s.id == "s09_added_file")
    entry = added.files[0]
    assert entry.base is None and entry.right is None
    assert entry.left is not None and entry.merge is not None


def test_cli_skips_hidden_scenario_directory(scenarios_dir, tmp_path, capsys):
    root = tmp_path / "scenarios"
    shutil.copytree(scenarios_dir, root)
    (root / ".cache" / "v1").mkdir(parents=True)
    (root / ".cache" / "v1" / "blob").write_bytes(b"x")
    assert main(["harness", "run", str(root)]) == 0
    out = capsys.readouterr().out
    assert "scenarios=10\n" in out and "files_total=10\n" in out


def test_hidden_directories_inside_versions_are_not_replayed(scenarios_dir, tmp_path):
    root = tmp_path / "scenarios"
    shutil.copytree(scenarios_dir, root)
    for sub in ("base", "left", "right", "merge"):
        idea = root / "s02_method_addition" / sub / ".idea"
        idea.mkdir()
        (idea / "workspace.xml").write_bytes(b"<project/>\n")
        (idea / "misc.xml").write_bytes(b"<project %s/>\n" % sub.encode())
    scenario = next(
        s for s in load_scenarios(root) if s.id == "s02_method_addition"
    )
    assert [e.path for e in scenario.files] == ["Util.java"]
    report = run_harness(root, [U, S, X], [(U, X), (S, X)], config=CFG)
    assert report.files_total == 10


# -- running -------------------------------------------------------------------

def test_run_tools_counts(scenarios_dir):
    scenarios = {s.id: s for s in load_scenarios(scenarios_dir)}
    res = run_tools(scenarios["s02_method_addition"], [U, S, X], CFG)
    by_tool = {r.tool: r for r in res}
    assert by_tool["unstructured"].conflicts == 1
    assert by_tool["semistructured"].conflicts == 0
    assert by_tool["sesame"].conflicts == 0
    res = run_tools(scenarios["s03_extract_constant"], [U, S, X], CFG)
    by_tool = {r.tool: r for r in res}
    assert by_tool["unstructured"].conflicts == 1
    assert by_tool["semistructured"].conflicts == 1
    assert by_tool["sesame"].conflicts == 0


def test_run_tools_adopts_one_sided_file(scenarios_dir):
    scenarios = {s.id: s for s in load_scenarios(scenarios_dir)}
    res = run_tools(scenarios["s09_added_file"], [U, X], CFG)
    for r in res:
        assert r.conflicts == 0
        assert r.output == scenarios["s09_added_file"].files[0].left


def test_run_tools_records_fallback(scenarios_dir):
    scenarios = {s.id: s for s in load_scenarios(scenarios_dir)}
    res = run_tools(scenarios["s10_fallback"], [U, S, X], CFG)
    by_tool = {r.tool: r for r in res}
    assert not by_tool["unstructured"].fell_back
    assert by_tool["semistructured"].fell_back
    assert by_tool["sesame"].fell_back
    outputs = {r.output for r in res}
    assert len(outputs) == 1  # all tools agree on the fallback result


# -- one parse per file for all structured engines ---------------------------------

FIXTURE_MERGED = 9  # s09_added_file is adopted, not merged
FIXTURE_PARSED = 8  # no version of s10_fallback parses


def _corpus_scenario() -> MergeScenario:
    """Seeded edit triples of the corpus, as ``test_merge_digest`` builds them."""
    from test_merge_digest import _edit

    rng = random.Random(20261019)
    files = []
    for path in sorted((Path(__file__).parent / "fixtures" / "java_corpus").glob("*.java")):
        base = path.read_bytes()
        left = _edit(rng, base, rng.randint(1, 3))
        right = _edit(rng, base, rng.randint(1, 3))
        files.append(FileEntry(path.name, base, left, right, None))
    return MergeScenario("corpus", files)


def _replayed(scenarios_dir) -> list[MergeScenario]:
    return load_scenarios(scenarios_dir) + [_corpus_scenario()]


def _alone(entry: FileEntry, mode: EngineMode, config: DriverConfig) -> tuple:
    """What ``run_engine`` gives for one engine on its own: the fields of a
    ToolResult, with an exception as its error."""
    versions = (entry.base or b"", entry.left or b"", entry.right or b"")
    try:
        result = run_engine(*versions, replace(config, mode=mode))
    except Exception as exc:
        return b"", 0, False, str(exc)
    return result.output, result.conflicts, result.fell_back, None


def _merged(scenario: MergeScenario) -> list[FileEntry]:
    """The files the engines merge: all but those adopted from one side."""
    return [e for e in scenario.files
            if e.base is not None or (e.left is None) == (e.right is None)]


@pytest.mark.parametrize("fallback", [True, False])
def test_shared_parse_gives_each_engine_its_own_result(scenarios_dir, fallback):
    config = replace(CFG, fallback_on_parse_error=fallback)
    outcomes = {"fell_back": 0, "error": 0, "clean": 0}
    for scenario in _replayed(scenarios_dir):
        merged = {e.path for e in _merged(scenario)}
        results = iter(run_tools(scenario, [U, S, X], config))
        for entry in scenario.files:
            for mode in (U, S, X):
                got = next(results)
                assert (got.tool, got.scenario, got.path) == (
                    mode.value, scenario.id, entry.path
                )
                if entry.path not in merged:
                    continue
                want = _alone(entry, mode, config)
                assert (got.output, got.conflicts, got.fell_back, got.error) == want
                if mode is X:
                    outcomes["fell_back" if got.fell_back else
                             "error" if got.error else "clean"] += 1
        assert next(results, None) is None
    # the inputs reach every branch: merges, and parse failures of both kinds
    assert outcomes["clean"] > 50
    assert outcomes["fell_back" if fallback else "error"] > 10


def _count_calls(monkeypatch, module, name: str) -> list[int]:
    calls = [0]
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _parse_work(entry: FileEntry) -> tuple[int, int]:
    """The ``parse_units`` and ``match_trees`` calls that parsing and
    matching one file's versions makes: parsing stops at the first version
    that fails, and only a file that parses is matched."""
    for count, data in enumerate((entry.base, entry.left, entry.right), 1):
        try:
            javaparse.parse_units(data or b"")
        except javaparse.ParseError:
            return count, 0
    return 3, 1


@pytest.mark.parametrize("modes", [[U, S, X], [X, U, S], [S], [U]])
def test_each_merged_file_is_parsed_and_matched_once(scenarios_dir, monkeypatch, modes):
    scenarios = _replayed(scenarios_dir)
    work = [_parse_work(e) for s in scenarios for e in _merged(s)]
    fixture_work = [_parse_work(e) for s in scenarios[:-1] for e in _merged(s)]
    assert len(fixture_work) == FIXTURE_MERGED
    assert sum(matches for _, matches in fixture_work) == FIXTURE_PARSED
    parses = _count_calls(monkeypatch, javaparse, "parse_units")
    matches = _count_calls(monkeypatch, driver, "match_trees")
    for scenario in scenarios:
        run_tools(scenario, modes, CFG)
    if modes == [U]:
        assert (parses[0], matches[0]) == (0, 0)
    else:
        assert (parses[0], matches[0]) == tuple(map(sum, zip(*work)))


def test_a_parse_error_of_another_kind_is_each_structured_engines_error(
    scenarios_dir, monkeypatch
):
    baseline = run_harness(scenarios_dir, [U, S, X], [(U, X), (S, X)], config=CFG)
    unstructured = [
        r for s in load_scenarios(scenarios_dir) for r in run_tools(s, [U], CFG)
    ]

    def broken_parse(source, members=None):
        raise RuntimeError("parser broke")

    monkeypatch.setattr(javaparse, "parse_units", broken_parse)
    results = [
        r for s in load_scenarios(scenarios_dir) for r in run_tools(s, [U, S, X], CFG)
    ]
    merged = {(r.scenario, r.path) for r in results if r.tool == "sesame" and r.error}
    assert len(merged) == FIXTURE_MERGED
    for r in results:
        if r.tool == "unstructured":
            continue
        if (r.scenario, r.path) in merged:
            assert (r.output, r.conflicts, r.fell_back, r.error) == (
                b"", 0, False, "parser broke"
            )
        else:  # adopted without a merge
            assert r.error is None
    assert [r for r in results if r.tool == "unstructured"] == unstructured
    report = run_harness(scenarios_dir, [U, S, X], [(U, X), (S, X)], config=CFG)
    assert report.per_tool["unstructured"] == baseline.per_tool["unstructured"]
    for tool in ("semistructured", "sesame"):
        assert report.per_tool[tool].errors == FIXTURE_MERGED
        assert report.per_tool[tool].fallbacks == 0


def test_no_fallback_reports_the_parse_error_on_each_structured_engine(scenarios_dir):
    scenario = next(
        s for s in load_scenarios(scenarios_dir) if s.id == "s10_fallback"
    )
    entry = scenario.files[0]
    with pytest.raises(javaparse.ParseError) as raised:
        javaparse.parse_units(entry.base)
    strict = replace(CFG, fallback_on_parse_error=False)
    by_tool = {r.tool: r for r in run_tools(scenario, [S, U, X], strict)}
    assert str(raised.value) == "unterminated type body"
    for tool in ("semistructured", "sesame"):
        result = by_tool[tool]
        assert (result.output, result.conflicts, result.fell_back) == (b"", 0, False)
        assert result.error == str(raised.value)
    assert by_tool["unstructured"].error is None


# -- differ / classify ------------------------------------------------------------

def test_differ_on_conflict_count():
    assert tools_differ(result(conflicts=0), result(conflicts=1))


def test_differ_ignores_whitespace():
    a = result(output=b"int  x ;\n\n")
    b = result(output=b"int x;\n")
    assert not tools_differ(a, b)


def test_differ_on_content():
    assert tools_differ(result(output=b"x = 1;"), result(output=b"x = 2;"))


def test_differ_symmetry():
    cases = [
        (result(conflicts=1, output=b"a"), result(conflicts=0, output=b"b")),
        (result(output=b"same"), result(output=b"same")),
        (result(output=b"x y"), result(output=b"xy")),
    ]
    for a, b in cases:
        assert tools_differ(a, b) == tools_differ(b, a)


def test_strip_whitespace_removes_all_kinds():
    assert strip_whitespace(b"a \t\r\n\x0b\x0cb") == b"ab"


def test_classify_afp_for_m():
    m = result(tool="m", conflicts=1, output=b"<<< ...")
    n = result(tool="n", conflicts=0, output=b"clean  result\n")
    rec = classify(m, n, b"clean result")
    assert rec.classification == AFP_M


def test_classify_afn_for_n_when_clean_output_deviates():
    m = result(tool="m", conflicts=1, output=b"<<< ...")
    n = result(tool="n", conflicts=0, output=b"something else")
    rec = classify(m, n, b"clean result")
    assert rec.classification == AFN_N


def test_classify_symmetric_rules():
    m = result(tool="m", conflicts=0, output=b"clean result")
    n = result(tool="n", conflicts=1, output=b"<<< ...")
    assert classify(m, n, b"clean result").classification == AFP_N
    m2 = result(tool="m", conflicts=0, output=b"deviates")
    assert classify(m2, n, b"clean result").classification == AFN_M


def test_classify_both_conflicting_unclassified():
    m = result(tool="m", conflicts=1, output=b"<<< a")
    n = result(tool="n", conflicts=2, output=b"<<< b")
    rec = classify(m, n, b"merge")
    assert rec.classification == UNCLASSIFIED
    assert "both" in rec.reason


def test_classify_missing_merge_commit_unclassified():
    m = result(tool="m", conflicts=1)
    n = result(tool="n", conflicts=0, output=b"clean")
    rec = classify(m, n, None)
    assert rec.classification == UNCLASSIFIED
    assert "merge-commit" in rec.reason


def test_classify_neither_conflicting_unclassified():
    m = result(tool="m", output=b"one")
    n = result(tool="n", output=b"two")
    rec = classify(m, n, b"one")
    assert rec.classification == UNCLASSIFIED
    assert rec.reason == "neither tool reports conflicts"


@pytest.mark.parametrize("merge_file", [b"", b"clean result", None])
def test_classify_engine_error_unclassified(merge_file):
    # an engine that failed has no output to compare; it is never charged
    # an aFN, and the other engine is never charged an aFP, for the failure
    failed = result(tool="n", error="boom")
    conflicting = result(tool="m", conflicts=1, output=b"<<< ...")
    clean = result(tool="m", output=b"clean result")
    for m, n in [(conflicting, failed), (clean, failed), (failed, conflicting)]:
        rec = classify(m, n, merge_file)
        assert rec.classification == UNCLASSIFIED
        assert rec.reason == "engine error"
        assert (rec.m, rec.n, rec.merge) == (m, n, merge_file)


def test_classification_exclusive_per_tool():
    # one record can never be both aFP and aFN for the same tool
    for conflicts_m, conflicts_n in [(1, 0), (0, 1)]:
        for output in (b"clean result", b"deviates"):
            m = result(tool="m", conflicts=conflicts_m, output=output)
            n = result(tool="n", conflicts=conflicts_n, output=output)
            rec = classify(m, n, b"clean result")
            assert rec.classification in (AFP_M, AFN_M, AFP_N, AFN_N, UNCLASSIFIED)


# -- report ------------------------------------------------------------------------

def test_empty_report():
    report = build_report([], [], [("a", "b")])
    assert report.files_total == 0
    assert report.per_pair[("a", "b")].differ_count == 0
    text = render_report(report)
    assert "differ_count=0" in text


def test_full_dataset_report(scenarios_dir):
    report = run_harness(scenarios_dir, [U, S, X], [(U, X), (S, X)], config=CFG)
    assert report.scenarios == 10
    assert report.files_total == 10
    assert report.files_changed_both_sides == 6
    assert report.per_tool["unstructured"].merge_conflicts == 6
    assert report.per_tool["semistructured"].merge_conflicts == 5
    assert report.per_tool["sesame"].merge_conflicts == 2
    assert report.per_tool["unstructured"].conflicting_files == 6
    assert report.per_tool["semistructured"].conflicting_files == 5
    assert report.per_tool["sesame"].conflicting_files == 2
    ux = report.per_pair[("unstructured", "sesame")]
    assert ux.differ_count == 5
    assert ux.afp == {"unstructured": 3, "sesame": 0}
    assert ux.afn == {"unstructured": 0, "sesame": 1}
    assert ux.unclassified == 1
    sx = report.per_pair[("semistructured", "sesame")]
    assert sx.differ_count == 4
    assert sx.afp == {"semistructured": 2, "sesame": 0}
    assert sx.afn == {"semistructured": 0, "sesame": 1}
    assert sx.unclassified == 1


def test_report_conservation(scenarios_dir):
    scenarios = load_scenarios(scenarios_dir)
    results = []
    for s in scenarios:
        results.extend(run_tools(s, [U, S, X], CFG))
    report = build_report(scenarios, results, [("unstructured", "sesame")])
    for tool in ("unstructured", "semistructured", "sesame"):
        per_file = sum(r.conflicts for r in results if r.tool == tool)
        assert report.per_tool[tool].merge_conflicts == per_file


def test_rendered_report_is_parseable(scenarios_dir, tmp_path):
    out = tmp_path / "report.txt"
    run_harness(scenarios_dir, [U, X], [(U, X)], out_path=out, config=CFG)
    text = out.read_text()
    values = {}
    for line in text.splitlines():
        if "=" in line and not line.startswith("#"):
            key, _, value = line.partition("=")
            values.setdefault(key.strip(), value.strip())
    assert values["scenarios"] == "10"
    assert values["differ_percent"] == "50.00"


def test_records_hold_exactly_the_differing_pairs(scenarios_dir):
    scenarios = load_scenarios(scenarios_dir)
    results = []
    for s in scenarios:
        results.extend(run_tools(s, [U, S, X], CFG))
    pairs = [("unstructured", "sesame"), ("semistructured", "sesame")]
    report = build_report(scenarios, results, pairs)
    expected = []  # pair by pair, then file by file in scenario order
    for tool_m, tool_n in pairs:
        for s in scenarios:
            for entry in s.files:
                m, n = (
                    next(r for r in results if (r.tool, r.scenario, r.path) == key)
                    for key in ((tool_m, s.id, entry.path), (tool_n, s.id, entry.path))
                )
                if tools_differ(m, n):
                    expected.append((m, n, entry.merge))
    assert [(r.m, r.n, r.merge) for r in report.records] == expected
    assert [(r.m.tool, r.m.scenario, r.classification) for r in report.records] == [
        ("unstructured", "s02_method_addition", AFP_M),
        ("unstructured", "s03_extract_constant", AFP_M),
        ("unstructured", "s04_chained_call", AFN_N),
        ("unstructured", "s05_both_rewrite", UNCLASSIFIED),
        ("unstructured", "s07_same_line", AFP_M),
        ("semistructured", "s03_extract_constant", AFP_M),
        ("semistructured", "s04_chained_call", AFN_N),
        ("semistructured", "s05_both_rewrite", UNCLASSIFIED),
        ("semistructured", "s07_same_line", AFP_M),
    ]
    for record, (m, n, _) in zip(report.records, expected):
        assert record.m is m and record.n is n  # the objects run_tools returned


def test_engine_error_is_unclassified_in_report(scenarios_dir, tmp_path, monkeypatch):
    real = harness.run_engine

    def failing_sesame(base, left, right, config, matched=None):
        if config.mode is X and b"class Chain" in base:
            raise RuntimeError("boom")
        return real(base, left, right, config)

    baseline = run_harness(scenarios_dir, [U, X], [(U, X)], config=CFG)
    monkeypatch.setattr(harness, "run_engine", failing_sesame)
    out = tmp_path / "report.txt"
    queue = tmp_path / "queue"
    report = run_harness(
        scenarios_dir, [U, X], [(U, X)], out_path=out, queue_dir=queue, config=CFG
    )
    assert report.per_tool["sesame"].errors == 1
    assert "engine_errors=1" in out.read_text()
    before = baseline.per_pair[("unstructured", "sesame")]
    after = report.per_pair[("unstructured", "sesame")]
    # the chained-call file was an aFN for sesame; now it is unclassified
    assert before.afn == {"unstructured": 0, "sesame": 1}
    assert after.afn == {"unstructured": 0, "sesame": 0}
    assert after.afp == before.afp
    assert after.unclassified == before.unclassified + 1
    info = queue / "s04_chained_call__Chain.java__unstructured_vs_sesame" / "info.txt"
    text = info.read_text()
    assert "classification: unclassified\n" in text
    assert "reason: engine error\n" in text


def test_export_queue_writes_review_cases(scenarios_dir, tmp_path):
    queue = tmp_path / "queue"
    report = run_harness(
        scenarios_dir, [U, X], [(U, X)], queue_dir=queue, config=CFG
    )
    wanted = [
        r for r in report.records
        if r.classification in (UNCLASSIFIED, AFN_M, AFN_N)
    ]
    dirs = sorted(p for p in queue.iterdir() if p.is_dir())
    assert len(dirs) == len(wanted) == 2  # chained-call aFN + both-conflict case
    for case in dirs:
        names = {p.name for p in case.iterdir()}
        assert "info.txt" in names
        assert "merge_commit" in names
        assert any(n.endswith(".out") for n in names)


def _write_scenario(root: Path, files: dict[str, dict[str, bytes]]) -> None:
    """One scenario ``s`` under root: {path: {version dir: content}}."""
    for sub in ("base", "left", "right", "merge"):
        (root / "s" / sub).mkdir(parents=True, exist_ok=True)
    for rel, versions in files.items():
        for sub, data in versions.items():
            target = root / "s" / sub / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)


def _method_addition() -> dict[str, bytes]:
    golden = Path(__file__).parent / "fixtures" / "golden" / "method_addition"
    return {
        role: (golden / f"{role}.java").read_bytes()
        for role in ("base", "left", "right")
    }


def test_export_queue_keeps_distinct_paths_apart(tmp_path):
    # no merge file: the differing pair is queued as unclassified
    paths = ("a/b.java", "a_b.java", "a%2Fb.java")
    _write_scenario(tmp_path / "scenarios", {rel: _method_addition() for rel in paths})
    queue = tmp_path / "queue"
    report = run_harness(
        tmp_path / "scenarios", [U, X], [(U, X)], queue_dir=queue, config=CFG
    )
    assert [r.classification for r in report.records] == [UNCLASSIFIED] * 3
    by_name = {p.name: p for p in queue.iterdir()}
    assert sorted(by_name) == [
        "s__a%252Fb.java__unstructured_vs_sesame",
        "s__a%2Fb.java__unstructured_vs_sesame",
        "s__a_b.java__unstructured_vs_sesame",
    ]
    for slug, rel in (("a%2Fb.java", "a/b.java"), ("a_b.java", "a_b.java"),
                      ("a%252Fb.java", "a%2Fb.java")):
        info = (by_name[f"s__{slug}__unstructured_vs_sesame"] / "info.txt").read_text()
        assert f"path: {rel}\n" in info


# -- the harness run command -----------------------------------------------------

def test_cli_rejects_repeated_engine(scenarios_dir, capsys):
    code = main([
        "harness", "run", str(scenarios_dir),
        "--tools", "sesame,sesame,unstructured", "--pairs", "unstructured:sesame",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert "engine repeated in --tools: sesame" in captured.err
    assert captured.out == ""


def test_cli_rejects_a_pair_of_one_engine(scenarios_dir, capsys):
    code = main([
        "harness", "run", str(scenarios_dir), "--tools", "sesame",
        "--pairs", "sesame:sesame",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert "pair names one engine twice: sesame" in captured.err
    assert captured.out == ""


def test_cli_rejects_repeated_pair(scenarios_dir, capsys):
    code = main([
        "harness", "run", str(scenarios_dir), "--tools", "sesame,unstructured",
        "--pairs", "unstructured:sesame, unstructured:sesame",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert "pair repeated in --pairs: unstructured:sesame" in captured.err
    assert captured.out == ""


def test_cli_default_pairs_are_those_of_the_tools_given(scenarios_dir, capsys):
    assert main(["harness", "run", str(scenarios_dir),
                 "--tools", "unstructured,sesame"]) == 0
    out = capsys.readouterr().out
    assert re.findall(r"^\[pair .*\]$", out, re.M) == ["[pair unstructured:sesame]"]
    assert main(["harness", "run", str(scenarios_dir), "--tools", "unstructured"]) == 0
    out = capsys.readouterr().out
    assert "[tool unstructured]" in out and "[pair " not in out


def test_cli_rejects_a_pair_of_an_engine_not_run(scenarios_dir, capsys):
    code = main([
        "harness", "run", str(scenarios_dir), "--tools", "unstructured,sesame",
        "--pairs", "unstructured:sesame,semistructured:sesame",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert "pair uses engine not in --tools: semistructured" in captured.err
    assert captured.out == ""


def test_cli_harness_engine_options(scenarios_dir, tmp_path):
    args = ["harness", "run", str(scenarios_dir), "--tools", "unstructured,sesame",
            "--pairs", "unstructured:sesame"]
    flag, from_config = tmp_path / "flag.txt", tmp_path / "config.txt"
    cfg = tmp_path / "cfg"
    cfg.write_text("diff3-style = true\nlabels = mine, old, theirs\n")
    assert main(
        args + ["--out", str(flag), "--diff3-style", "--labels", "mine,old,theirs"]
    ) == 0
    queue = tmp_path / "queue"
    assert main(args + ["--out", str(from_config), "--config", str(cfg),
                        "--export-queue", str(queue)]) == 0
    assert flag.read_text() == from_config.read_text()
    case = queue / "s05_both_rewrite__Gate.java__unstructured_vs_sesame"
    out = (case / "unstructured.out").read_bytes()
    assert b"<<<<<<< mine\n" in out and b"||||||| old\n" in out


def test_cli_harness_no_fallback(tmp_path, capsys):
    broken = {
        "base": b"class A {\n", "left": b"class A { int x;\n", "right": b"class A {\n"
    }
    _write_scenario(tmp_path / "scenarios", {"A.java": broken})
    args = ["harness", "run", str(tmp_path / "scenarios"), "--tools", "sesame",
            "--pairs", ""]
    assert main(args) == 0
    assert "parse_fallbacks=1\n" in capsys.readouterr().out
    assert main(args + ["--no-fallback"]) == 0
    out = capsys.readouterr().out
    assert "engine_errors=1\n" in out and "parse_fallbacks=0\n" in out
