"""Merge driver: exit codes, fallback, git calling convention, CLI."""

import errno
import os
import stat
from pathlib import Path

import pytest

from sesame.cli import main
from sesame.driver import (
    DriverConfig,
    EngineMode,
    apply_config_values,
    git_driver_entry,
    load_config_file,
    merge_files,
    run_engine,
)
from sesame.javaparse import ParseError
from sesame.textmerge import count_conflicts

GOLDEN = Path("tests/fixtures/golden")
LABELS = ("left", "base", "right")


def write_inputs(tmp_path, fixture):
    paths = {}
    for role in ("base", "left", "right"):
        src = (GOLDEN / fixture / f"{role}.java").read_bytes()
        p = tmp_path / f"{role}.java"
        p.write_bytes(src)
        paths[role] = p
    return paths


def config(mode, **kw):
    return DriverConfig(mode=mode, labels=LABELS, **kw)


def assert_conflicts_match_markers(fixture, mode):
    # the count comes from the merge outcome; the rendered markers must agree
    base, left, right = (
        (GOLDEN / fixture / f"{role}.java").read_bytes() for role in ("base", "left", "right")
    )
    result = run_engine(base, left, right, config(mode))
    assert result.conflicts == count_conflicts(result.output)


# -- merge_files ------------------------------------------------------------

def test_identical_inputs_exit_zero(tmp_path):
    f = tmp_path / "same.java"
    f.write_bytes(b"class A {}\n")
    out = tmp_path / "out.java"
    code = merge_files(f, f, f, out, config(EngineMode.SESAME))
    assert code == 0
    assert out.read_bytes() == b"class A {}\n"


@pytest.mark.parametrize(
    "mode,expected,exit_code",
    [
        (EngineMode.UNSTRUCTURED, "expected_unstructured", 1),
        (EngineMode.SEMISTRUCTURED, "expected_semistructured", 0),
        (EngineMode.SESAME, "expected_sesame", 0),
    ],
)
def test_method_addition_by_mode(tmp_path, mode, expected, exit_code):
    paths = write_inputs(tmp_path, "method_addition")
    out = tmp_path / "out.java"
    code = merge_files(paths["base"], paths["left"], paths["right"], out, config(mode))
    assert code == exit_code
    assert out.read_bytes() == (GOLDEN / "method_addition" / f"{expected}.java").read_bytes()
    assert_conflicts_match_markers("method_addition", mode)


def test_exit_one_iff_conflicts(tmp_path):
    paths = write_inputs(tmp_path, "extract_constant")
    out = tmp_path / "out.java"
    for mode, expected_code in [
        (EngineMode.UNSTRUCTURED, 1),
        (EngineMode.SEMISTRUCTURED, 1),
        (EngineMode.SESAME, 0),
    ]:
        code = merge_files(paths["base"], paths["left"], paths["right"], out, config(mode))
        assert code == expected_code
        conflicts = count_conflicts(out.read_bytes())
        assert (code == 1) == (conflicts >= 1)
        assert_conflicts_match_markers("extract_constant", mode)


def test_missing_input_exits_two_and_writes_nothing(tmp_path, capsys):
    f = tmp_path / "present.java"
    f.write_bytes(b"class A {}\n")
    out = tmp_path / "out.java"
    code = merge_files(tmp_path / "absent.java", f, f, out, config(EngineMode.SESAME))
    assert code == 2
    assert not out.exists()
    assert "cannot read" in capsys.readouterr().err


def test_parse_failure_falls_back_with_warning(tmp_path, capsys):
    base = tmp_path / "base.java"
    left = tmp_path / "left.java"
    right = tmp_path / "right.java"
    base.write_bytes(b"class Broken {\n  void m() {\n    a();\n}\n")
    left.write_bytes(b"class Broken {\n  void m() {\n    b();\n}\n")
    right.write_bytes(base.read_bytes())
    out = tmp_path / "out.java"
    code = merge_files(base, left, right, out, config(EngineMode.SESAME))
    assert code == 0
    assert out.read_bytes() == left.read_bytes()
    assert "unstructured" in capsys.readouterr().err


def test_parse_failure_without_fallback_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.java"
    bad.write_bytes(b"class Broken {\n")
    out = tmp_path / "out.java"
    code = merge_files(
        bad, bad, bad, out, config(EngineMode.SESAME, fallback_on_parse_error=False)
    )
    assert code == 2
    assert not out.exists()


def test_run_engine_no_fallback_raises():
    with pytest.raises(ParseError):
        run_engine(
            b"class {", b"class {", b"class {",
            config(EngineMode.SEMISTRUCTURED, fallback_on_parse_error=False),
        )


def test_output_overwrites_existing_file(tmp_path):
    f = tmp_path / "same.java"
    f.write_bytes(b"class A {}\n")
    out = tmp_path / "out.java"
    out.write_bytes(b"stale")
    assert merge_files(f, f, f, out, config(EngineMode.UNSTRUCTURED)) == 0
    assert out.read_bytes() == b"class A {}\n"


def test_combined_changes_by_mode(tmp_path):
    paths = write_inputs(tmp_path, "combined_changes")
    out = tmp_path / "out.java"
    code = merge_files(
        paths["base"], paths["left"], paths["right"], out, config(EngineMode.SESAME)
    )
    assert code == 0
    assert out.read_bytes() == (
        GOLDEN / "combined_changes/expected_sesame.java"
    ).read_bytes()
    code = merge_files(
        paths["base"], paths["left"], paths["right"], out,
        config(EngineMode.UNSTRUCTURED),
    )
    assert code == 1
    assert count_conflicts(out.read_bytes()) == 2
    code = merge_files(
        paths["base"], paths["left"], paths["right"], out,
        config(EngineMode.SEMISTRUCTURED),
    )
    assert code == 1
    assert count_conflicts(out.read_bytes()) == 1
    for mode in EngineMode:
        assert_conflicts_match_markers("combined_changes", mode)


def test_marker_like_comment_text_merges(tmp_path):
    # a comment line that looks like a conflict marker is plain text
    base = (
        b"class A {\n    /*\n<<<<<<< not a marker\n    */\n"
        b"    int f() {\n        return 1;\n    }\n}\n"
    )
    left = base.replace(b"return 1;", b"return 2;")
    right = base.replace(b"int f()", b"long f()")
    paths = []
    for role, text in (("base", base), ("left", left), ("right", right)):
        paths.append(tmp_path / f"{role}.java")
        paths[-1].write_bytes(text)
    out = tmp_path / "out.java"
    for mode, exit_code in [
        (EngineMode.UNSTRUCTURED, 1),
        (EngineMode.SEMISTRUCTURED, 1),
        (EngineMode.SESAME, 0),
    ]:
        assert merge_files(*paths, out, config(mode)) == exit_code, mode
    assert out.read_bytes() == left.replace(b"int f()", b"long f()")
    assert run_engine(base, left, right, config(EngineMode.SEMISTRUCTURED)).conflicts == 1


def test_engines_are_identities_on_unchanged_corpus():
    for path in sorted(Path("tests/fixtures/java_corpus").glob("*.java")):
        data = path.read_bytes()
        for mode in EngineMode:
            result = run_engine(data, data, data, config(mode))
            assert result.conflicts == 0
            assert result.output == data, (path.name, mode)
            assert not result.fell_back


def nested_types(depth, inner):
    head = "".join(f"class C{i} {{\n" for i in range(depth))
    return (head + inner + "}\n" * depth).encode()


def nested_inputs(depth):
    return (
        nested_types(depth, "void m() { a(); }\n"),
        nested_types(depth, "void m() { a(); }\nvoid n() { }\n"),
        nested_types(depth, "void m() { b(); }\n"),
    )


@pytest.mark.parametrize("depth", [100, 400, 2000])
def test_deeply_nested_types_merge_or_fall_back(depth):
    base, left, right = nested_inputs(depth)
    plain = run_engine(base, left, right, config(EngineMode.UNSTRUCTURED))
    for mode in (EngineMode.SEMISTRUCTURED, EngineMode.SESAME):
        result = run_engine(base, left, right, config(mode))
        assert result.conflicts == count_conflicts(result.output)
        # 100 levels are shallow enough for the recursive parser, 400 are not
        assert result.fell_back == (depth > 100)
        if result.fell_back:
            assert result.fallback_reason == "declarations nested too deeply"
            assert (result.output, result.conflicts) == (plain.output, plain.conflicts)
        else:
            assert result.conflicts == 0
            assert b"void n() { }" in result.output and b"b();" in result.output
    if depth > 100:
        strict = config(EngineMode.SESAME, fallback_on_parse_error=False)
        with pytest.raises(ParseError, match="nested too deeply"):
            run_engine(base, left, right, strict)


def test_cli_deeply_nested_types(tmp_path, capsys):
    paths = []
    for role, text in zip(("base", "left", "right"), nested_inputs(400)):
        paths.append(tmp_path / f"{role}.java")
        paths[-1].write_bytes(text)
    out = str(tmp_path / "out.java")
    for mode in EngineMode:
        assert run_cli("merge", *map(str, paths), "-o", out, "--mode", mode.value) == 1
    assert "declarations nested too deeply" in capsys.readouterr().err
    assert run_cli("merge", *map(str, paths), "-o", out, "--no-fallback") == 2
    err = capsys.readouterr().err
    assert "parse failed and fallback is disabled: declarations nested too deeply" in err


def test_overload_with_a_literal_in_an_annotation_merges_structurally():
    # both overloads must key apart: '<' inside a literal opens no generics
    base = (
        b"class A {\n"
        b"  void f(long b) {\n    one();\n  }\n"
        b'  void f(@A("<") int a, long b) {\n    two();\n  }\n'
        b"}\n"
    )
    left = base.replace(b"one();", b"one(1);")
    right = base.replace(b"two();", b"two(2);")
    expected = base.replace(b"one();", b"one(1);").replace(b"two();", b"two(2);")
    for mode in (EngineMode.SEMISTRUCTURED, EngineMode.SESAME):
        result = run_engine(base, left, right, config(mode))
        assert not result.fell_back, result.fallback_reason
        assert (result.output, result.conflicts) == (expected, 0)


def test_non_ascii_identifiers_merge_structurally():
    # both fields must key apart by their whole names, not by a trailing 'e'
    base = "class Maß {\n  int größe = 1;\n  int straße = 2;\n}\n".encode()
    left = base.replace(b"= 1;", b"= 10;")
    right = base.replace(b"= 2;", b"= 20;")
    expected = base.replace(b"= 1;", b"= 10;").replace(b"= 2;", b"= 20;")
    for mode in (EngineMode.SEMISTRUCTURED, EngineMode.SESAME):
        result = run_engine(base, left, right, config(mode))
        assert not result.fell_back, result.fallback_reason
        assert (result.output, result.conflicts) == (expected, 0)


def test_a_byte_order_mark_stays_first_in_a_structured_merge():
    base = b"\xef\xbb\xbfclass A { }\n"
    left = base.replace(b"{ }", b"{ int x; }")
    right = base.replace(b"{ }", b"{ int y; }")
    for mode in (EngineMode.SEMISTRUCTURED, EngineMode.SESAME):
        result = run_engine(base, left, right, config(mode))
        assert not result.fell_back, result.fallback_reason
        assert (result.output, result.conflicts) == (
            b"\xef\xbb\xbfclass A { int x; int y; }\n", 0,
        )


def test_a_package_or_import_after_a_type_falls_back():
    # moving the import into the import block would not give right's text
    base = b"import x.Y;\nclass A {\n}\n"
    right = base + b"package p;import a.b;\n"
    for mode in (EngineMode.SEMISTRUCTURED, EngineMode.SESAME):
        result = run_engine(base, base, right, config(mode))
        assert result.fell_back
        assert result.fallback_reason == "package declaration out of order at byte 24"
        assert (result.output, result.conflicts) == (right, 0)


# -- git driver ---------------------------------------------------------------

def test_git_driver_overwrites_current(tmp_path):
    paths = write_inputs(tmp_path, "method_addition")
    code = git_driver_entry(
        paths["base"], paths["left"], paths["right"], config(EngineMode.SESAME)
    )
    assert code == 0
    expected = (GOLDEN / "method_addition" / "expected_sesame.java").read_bytes()
    assert paths["left"].read_bytes() == expected


def test_git_driver_conflicts_exit_one(tmp_path):
    paths = write_inputs(tmp_path, "method_addition")
    code = git_driver_entry(
        paths["base"], paths["left"], paths["right"], config(EngineMode.UNSTRUCTURED)
    )
    assert code == 1
    assert count_conflicts(paths["left"].read_bytes()) == 1


def test_git_driver_parse_fallback(tmp_path):
    bad = b"class Broken {\n  void m() {\n    x();\n}\n"
    ancestor = tmp_path / "O"
    current = tmp_path / "A"
    other = tmp_path / "B"
    ancestor.write_bytes(bad)
    current.write_bytes(bad.replace(b"x();", b"y();"))
    other.write_bytes(bad)
    code = git_driver_entry(ancestor, current, other, config(EngineMode.SESAME))
    assert code == 0
    assert b"y();" in current.read_bytes()


# -- config file ---------------------------------------------------------------

def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "merge.cfg"
    cfg.write_text(
        "# settings\nmode = semistructured\nseparators = {,}\nlabels = a, b, c\n"
    )
    values = load_config_file(cfg)
    config = apply_config_values(DriverConfig(), values)
    assert config.mode is EngineMode.SEMISTRUCTURED
    assert config.separators.separators == ("{", "}")
    assert config.labels == ("a", "b", "c")


@pytest.mark.parametrize("value", ["1", "true", "True", "YES", "yes"])
def test_config_booleans_true(value):
    values = {"diff3-style": value, "fallback": value}
    config = apply_config_values(DriverConfig(fallback_on_parse_error=False), values)
    assert config.base_marker is True
    assert config.fallback_on_parse_error is True


@pytest.mark.parametrize("value", ["0", "false", "FALSE", "No", "no"])
def test_config_booleans_false(value):
    values = {"diff3-style": value, "fallback": value}
    config = apply_config_values(DriverConfig(base_marker=True), values)
    assert config.base_marker is False
    assert config.fallback_on_parse_error is False


@pytest.mark.parametrize("key", ["diff3-style", "fallback"])
@pytest.mark.parametrize("value", ["on", "ture", "", "2"])
def test_config_booleans_reject_other_values(key, value):
    with pytest.raises(ValueError, match=key):
        apply_config_values(DriverConfig(), {key: value})


def test_cli_unrecognised_boolean_exits_two(tmp_path, capsys):
    paths = write_inputs(tmp_path, "method_addition")
    out = tmp_path / "out.java"
    for line in ("fallback = on", "diff3-style = ture"):
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        assert run_cli(
            "merge", str(paths["base"]), str(paths["left"]), str(paths["right"]),
            "-o", str(out), "--config", str(cfg),
        ) == 2
        err = capsys.readouterr().err
        assert line.split(" = ")[0] in err
        assert "parse failed" not in err
    assert not out.exists()


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "merge.cfg"
    cfg.write_text("shenanigans = yes\n")
    with pytest.raises(ValueError):
        apply_config_values(DriverConfig(), load_config_file(cfg))


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    cfg = tmp_path / "merge.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfmode = unstructured\n")
    config = apply_config_values(DriverConfig(), load_config_file(cfg))
    assert config.mode is EngineMode.UNSTRUCTURED


def test_cli_config_file_with_a_byte_order_mark_is_read(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_bytes(b"\xef\xbb\xbfmode = unstructured\n")
    paths = write_inputs(tmp_path, "method_addition")
    # unstructured conflicts where the default sesame merges clean
    assert run_cli(
        "merge", str(paths["base"]), str(paths["left"]), str(paths["right"]),
        "-o", str(tmp_path / "out.java"), "--config", str(cfg),
    ) == 1


def test_cli_config_key_given_twice_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("mode = sesame\n# later\nmode=unstructured\n")
    paths = write_inputs(tmp_path, "method_addition")
    out = tmp_path / "out.java"
    assert run_cli(
        "merge", str(paths["base"]), str(paths["left"]), str(paths["right"]),
        "-o", str(out), "--config", str(cfg),
    ) == 2
    assert "config key repeated: 'mode'" in capsys.readouterr().err
    assert not out.exists()


# -- CLI ------------------------------------------------------------------------

def run_cli(*args):
    return main(list(args))


def test_cli_merge_modes(tmp_path):
    paths = write_inputs(tmp_path, "method_addition")
    out = tmp_path / "merged.java"
    code = run_cli(
        "merge", str(paths["base"]), str(paths["left"]), str(paths["right"]),
        "-o", str(out), "--mode", "sesame", "--labels", "left,base,right",
    )
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "method_addition/expected_sesame.java").read_bytes()
    code = run_cli(
        "merge", str(paths["base"]), str(paths["left"]), str(paths["right"]),
        "-o", str(out), "--mode", "unstructured", "--labels", "left,base,right",
    )
    assert code == 1


def test_cli_custom_separators_and_diff3_style(tmp_path):
    base, left, right = tmp_path / "b", tmp_path / "l", tmp_path / "r"
    base.write_bytes(b"class A { void m() { f(1); } }\n")
    left.write_bytes(b"class A { void m() { f(2); } }\n")
    right.write_bytes(b"class A { void m() { f(3); } }\n")
    out = tmp_path / "out"
    code = run_cli(
        "merge", str(base), str(left), str(right), "-o", str(out),
        "--mode", "sesame", "--separators", "{,},(,),;", "--diff3-style",
    )
    assert code == 1
    data = out.read_bytes()
    assert b"|||||||" in data


def test_cli_config_file_flags_win(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("mode = unstructured\n")
    paths = write_inputs(tmp_path, "method_addition")
    out = tmp_path / "out.java"
    # config alone: unstructured conflicts
    assert run_cli(
        "merge", str(paths["base"]), str(paths["left"]), str(paths["right"]),
        "-o", str(out), "--config", str(cfg), "--labels", "left,base,right",
    ) == 1
    # flag overrides config
    assert run_cli(
        "merge", str(paths["base"]), str(paths["left"]), str(paths["right"]),
        "-o", str(out), "--config", str(cfg), "--mode", "sesame",
        "--labels", "left,base,right",
    ) == 0


def test_cli_no_fallback(tmp_path):
    bad = tmp_path / "bad.java"
    bad.write_bytes(b"class Broken {\n")
    out = tmp_path / "out.java"
    assert run_cli(
        "merge", str(bad), str(bad), str(bad), "-o", str(out), "--no-fallback"
    ) == 2


def test_cli_git_driver(tmp_path):
    paths = write_inputs(tmp_path, "method_addition")
    code = run_cli(
        "git-driver", str(paths["base"]), str(paths["left"]), str(paths["right"]),
        "--mode", "sesame", "--labels", "left,base,right",
    )
    assert code == 0
    expected = (GOLDEN / "method_addition/expected_sesame.java").read_bytes()
    assert paths["left"].read_bytes() == expected


def test_cli_rejects_bad_separators(tmp_path, capsys):
    paths = write_inputs(tmp_path, "method_addition")
    code = run_cli(
        "merge", str(paths["base"]), str(paths["left"]), str(paths["right"]),
        "-o", str(tmp_path / "o"), "--separators", "ab,cd",
    )
    assert code == 2
    assert "sesame:" in capsys.readouterr().err


def test_cli_empty_separators_flag_is_checked_like_the_config_value(tmp_path, capsys):
    paths = write_inputs(tmp_path, "method_addition")
    out = tmp_path / "out.java"
    code = run_cli(
        "merge", str(paths["base"]), str(paths["left"]), str(paths["right"]),
        "-o", str(out), "--separators", "",
    )
    assert code == 2
    assert "separator must be a single character: ''" in capsys.readouterr().err
    assert not out.exists()


def test_cli_empty_labels_flag_is_checked_like_the_config_value(tmp_path, capsys):
    paths = write_inputs(tmp_path, "method_addition")
    out = tmp_path / "out.java"
    code = run_cli(
        "merge", str(paths["base"]), str(paths["left"]), str(paths["right"]),
        "-o", str(out), "--labels", "",
    )
    assert code == 2
    assert "labels must be three comma-separated names" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "labels",
    ["ours\n=======,base,theirs", "ours,base\r,theirs", "ours,base,theirs\r\n>>>>>>> x"],
)
def test_cli_labels_with_a_line_break_are_an_error(tmp_path, capsys, labels):
    # a label with a line break would put marker lines inside the block
    for role, text in (("base", b"x\n"), ("left", b"l\n"), ("right", b"r\n")):
        (tmp_path / role).write_bytes(text)
    out = tmp_path / "out"
    code = run_cli(
        "merge", str(tmp_path / "base"), str(tmp_path / "left"), str(tmp_path / "right"),
        "-o", str(out), "--mode", "unstructured", "--labels", labels,
    )
    assert code == 2
    assert "labels must not hold a line break" in capsys.readouterr().err
    assert not out.exists()


def test_cli_empty_config_path_is_an_error(tmp_path, capsys):
    paths = write_inputs(tmp_path, "method_addition")
    out = tmp_path / "out.java"
    code = run_cli(
        "merge", str(paths["base"]), str(paths["left"]), str(paths["right"]),
        "-o", str(out), "--config", "",
    )
    assert code == 2
    assert "No such file or directory: ''" in capsys.readouterr().err
    assert not out.exists()


# -- output file mode --------------------------------------------------------

@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def _tree(path):
    return sorted((p, p.is_dir() or p.read_bytes()) for p in path.rglob("*"))


@pytest.mark.parametrize(
    "out,reason",
    [("existing-dir", "Is a directory"), ("missing/o.java", "No such file or directory")],
)
def test_cli_merge_write_failure_names_the_output(tmp_path, capsys, out, reason):
    paths = write_inputs(tmp_path, "method_addition")
    (tmp_path / "existing-dir").mkdir()
    target = str(tmp_path / out)
    before = _tree(tmp_path)
    assert run_cli(
        "merge", str(paths["base"]), str(paths["left"]), str(paths["right"]),
        "-o", target,
    ) == 2
    err = capsys.readouterr().err
    assert f"cannot write output: {target}: {reason}" in err
    assert ".sesame-" not in err
    assert _tree(tmp_path) == before


def test_cli_git_driver_write_failure_names_the_current_file(
    tmp_path, capsys, monkeypatch
):
    paths = write_inputs(tmp_path, "method_addition")
    before = _tree(tmp_path)

    def read_only(src, dst):  # what a read-only file system does
        raise OSError(errno.EROFS, os.strerror(errno.EROFS), src, dst)

    monkeypatch.setattr(os, "replace", read_only)
    assert run_cli(
        "git-driver", str(paths["base"]), str(paths["left"]), str(paths["right"])
    ) == 2
    err = capsys.readouterr().err
    assert f"cannot write output: {paths['left']}: {os.strerror(errno.EROFS)}" in err
    assert ".sesame-" not in err
    assert _tree(tmp_path) == before


def test_cli_merge_to_new_file_gets_umask_mode(tmp_path, umask_022):
    paths = write_inputs(tmp_path, "method_addition")
    out = tmp_path / "out.java"
    assert run_cli(
        "merge", str(paths["base"]), str(paths["left"]), str(paths["right"]),
        "-o", str(out),
    ) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o644


def test_cli_git_driver_keeps_the_current_file_mode(tmp_path, umask_022):
    paths = write_inputs(tmp_path, "method_addition")
    paths["left"].chmod(0o755)
    assert run_cli(
        "git-driver", str(paths["base"]), str(paths["left"]), str(paths["right"])
    ) == 0
    assert stat.S_IMODE(paths["left"].stat().st_mode) == 0o755
    expected = (GOLDEN / "method_addition/expected_sesame.java").read_bytes()
    assert paths["left"].read_bytes() == expected


# -- output through a symlink --------------------------------------------------

def test_cli_merge_through_a_symlink_writes_its_target(tmp_path, umask_022):
    paths = write_inputs(tmp_path, "method_addition")
    real = tmp_path / "real.java"
    real.write_bytes(b"old\n")
    real.chmod(0o600)
    link = tmp_path / "out.java"
    link.symlink_to("real.java")
    assert run_cli(
        "merge", str(paths["base"]), str(paths["left"]), str(paths["right"]),
        "-o", str(link),
    ) == 0
    expected = (GOLDEN / "method_addition/expected_sesame.java").read_bytes()
    assert link.is_symlink() and os.readlink(link) == "real.java"
    assert real.read_bytes() == expected
    assert stat.S_IMODE(real.stat().st_mode) == 0o600


def test_cli_git_driver_on_a_symlinked_current_file(tmp_path):
    paths = write_inputs(tmp_path, "method_addition")
    elsewhere = tmp_path / "sub"
    elsewhere.mkdir()
    real = elsewhere / "Current.java"
    paths["left"].rename(real)
    paths["left"].symlink_to(real)
    assert run_cli(
        "git-driver", str(paths["base"]), str(paths["left"]), str(paths["right"])
    ) == 0
    expected = (GOLDEN / "method_addition/expected_sesame.java").read_bytes()
    assert paths["left"].is_symlink()
    assert real.read_bytes() == expected
    assert sorted(p.name for p in elsewhere.iterdir()) == ["Current.java"]


def test_cli_merge_through_a_dangling_symlink_creates_its_target(tmp_path, umask_022):
    paths = write_inputs(tmp_path, "method_addition")
    (tmp_path / "sub").mkdir()
    link = tmp_path / "out.java"
    link.symlink_to("sub/new.java")
    assert run_cli(
        "merge", str(paths["base"]), str(paths["left"]), str(paths["right"]),
        "-o", str(link),
    ) == 0
    target = tmp_path / "sub" / "new.java"
    expected = (GOLDEN / "method_addition/expected_sesame.java").read_bytes()
    assert link.is_symlink() and target.read_bytes() == expected
    assert stat.S_IMODE(target.stat().st_mode) == 0o644
