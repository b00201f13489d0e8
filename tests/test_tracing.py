"""The benchmark's per-layer tracer still sees every layer a merge runs.

``perfbench/spans.py`` finds each traced layer by its function's name in
the ``sesame`` modules and rebinds it.  If a refactor stopped calling a
layer by that name, the benchmark would read 0 for it without failing;
these tests run real merges under the tracer and fail instead.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from sesame import cli
from sesame.separators import LINE_FIRST_BOUND
from sesame.textmerge import count_conflicts

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "fixtures" / "golden"
SCENARIOS = ROOT / "tests" / "fixtures" / "scenarios"

# the layers a merge through the command line runs; the others are the
# harness's and the marker counter, which no merge calls
MERGE_LAYERS = {
    "sesame": {
        "lexer.lex_states", "javaparse.parse_units", "treemerge.match_trees",
        "treemerge.merge_matched", "separators.mark", "separators.merge_body",
        "textdiff.diff2", "textmerge.merge3", "textmerge.render",
        "driver.run_engine", "driver.merge_files", "cli.main",
    },
    "unstructured": {
        "textdiff.diff2", "textmerge.merge3", "textmerge.render",
        "driver.run_engine", "driver.merge_files", "cli.main",
    },
}


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sesame_bindings() -> dict[tuple[str, str], int]:
    return {
        (name, attr): id(value)
        for name, module in list(sys.modules.items())
        if name == "sesame" or name.startswith("sesame.")
        for attr, value in vars(module).items()
    }


@pytest.fixture
def tracer():
    before = _sesame_bindings()
    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()
    assert _sesame_bindings() == before


def _merge(tracer, tmp_path, mode: str) -> dict[str, dict[str, float]]:
    paths = [str(GOLDEN / "combined_changes" / f"{role}.java")
             for role in ("base", "left", "right")]
    tracer.begin_op()
    # looked up at call time, where the tracer has rebound it
    code = cli.main(
        ["merge", *paths, "-o", str(tmp_path / "out.java"), "--mode", mode]
    )
    assert code in (0, 1)
    return tracer.stats


@pytest.mark.parametrize("mode", ["sesame", "unstructured"])
def test_every_layer_a_merge_runs_counts_calls(tracer, tmp_path, mode):
    stats = _merge(tracer, tmp_path, mode)
    called = {layer for layer, counts in stats.items() if counts["calls"]}
    assert called == MERGE_LAYERS[mode]
    assert all(not counts["errors"] for counts in stats.values())


def test_sesame_merge_lexes_each_version_once(tracer, tmp_path):
    stats = _merge(tracer, tmp_path, "sesame")
    assert stats["lexer.lex_states"]["calls"] == 3
    assert stats["javaparse.parse_units"]["calls"] == 3
    bodies = stats["separators.merge_body"]["calls"]
    assert bodies >= 1
    assert stats["separators.mark"]["calls"] == 3 * bodies
    assert stats["textdiff.diff2"]["calls"] == 2 * stats["textmerge.merge3"]["calls"]
    assert stats["separators.mark"]["lines_out"] > stats["separators.mark"]["lines_in"]


def _class(edited: int) -> bytes:
    methods = "".join(
        f"  int m{k}() {{ return {k}{' + 1' if k == edited else ''}; }}\n"
        for k in range(20)
    )
    return f"class A {{\n{methods}}}\n".encode()


def test_sesame_merge_lexes_later_versions_only_where_they_differ(tracer, tmp_path):
    paths = []
    for role, edited in (("base", -1), ("left", 3), ("right", 15)):
        paths.append(tmp_path / f"{role}.java")
        paths[-1].write_bytes(_class(edited))
    tracer.begin_op()
    assert cli.main(["merge", *map(str, paths), "-o", str(tmp_path / "out.java")]) == 0
    stats = tracer.stats["lexer.lex_states"]
    assert stats["calls"] == 3
    # the base is lexed whole; left and right each lex their edited method
    # and the text outside the methods, and copy the rest from the base
    outside = len("class A {") + len("\n}\n")
    edited = len("\n  int m3() { return 3 + 1; }") + len("\n  int m15() { return 15 + 1; }")
    assert stats["bytes"] == len(_class(-1)) + 2 * outside + edited


def _long_method(edits: dict[int, str]) -> bytes:
    statements = "".join(
        f"    s{k} = {edits.get(k, f'f{k}(x{k})')};\n" for k in range(LINE_FIRST_BOUND + 44)
    )
    return f"class A {{\n  void m() {{\n{statements}  }}\n}}\n".encode()


def test_a_long_body_is_merged_in_one_merge3_call(tracer, tmp_path):
    # the body is merged by lines first: statement 10 conflicts by lines
    # and resolves once marked, statement 200 still conflicts once marked
    paths = []
    for role, edits in (("base", {}), ("left", {10: "f10(x10, 1)", 200: "f200(y)"}),
                        ("right", {10: "g10(x10)", 200: "f200(z)"})):
        paths.append(tmp_path / f"{role}.java")
        paths[-1].write_bytes(_long_method(edits))
    out = tmp_path / "out.java"
    tracer.begin_op()
    assert cli.main(["merge", *map(str, paths), "-o", str(out)]) == 1
    stats = tracer.stats
    assert stats["separators.merge_body"]["calls"] == 1
    assert stats["textmerge.merge3"]["calls"] == stats["separators.merge_body"]["calls"]
    assert stats["textmerge.merge3"]["conflicts"] == count_conflicts(out.read_bytes()) == 1


def test_harness_run_parses_each_file_once_for_all_engines(tracer):
    tracer.begin_op()
    assert cli.main(["harness", "run", str(SCENARIOS)]) == 0
    stats = tracer.stats
    # of the 10 fixture files, 9 are merged; 8 parse, and parsing
    # s10_fallback stops at its base, the first version that fails
    merged, parsed = 9, 8
    versions = 3 * parsed + 1
    assert stats["javaparse.parse_units"]["calls"] == versions
    assert stats["javaparse.parse_units"]["errors"] == 1
    assert stats["lexer.lex_states"]["calls"] == versions
    assert stats["treemerge.match_trees"]["calls"] == parsed
    assert stats["driver.run_engine"]["calls"] == 3 * merged
    assert stats["driver.run_engine"]["fallbacks"] == 2


def test_uninstall_restores_every_original():
    before = _sesame_bindings()
    tracer = _load_spans().Tracer()
    tracer.install()
    assert _sesame_bindings() != before
    tracer.uninstall()
    assert _sesame_bindings() == before
