"""File-level merge driver.

Ties the engines together behind one entry point usable standalone or as a
git merge driver: read three versions, merge per the configured mode into
one ``MergeOutcome``, render it once with the configured labels and marker
style, write the result, and exit 0 when clean, 1 when the outcome holds
conflict regions, 2 on I/O or internal errors.

The structured engines merge the three versions parsed and matched by
``match_versions``.  A caller that runs both on one file, as the harness
does, matches once and hands the result, or the exception that parsing
raised, to each ``run_engine`` call; each engine then falls back or fails
on it exactly as it would after parsing for itself.
"""

from __future__ import annotations

import enum
import os
import stat
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

from .javaparse import ParseError, parse_versions
from .separators import SeparatorSet
from .textmerge import DEFAULT_LABELS, merge_texts_outcome, render
from .treemerge import MatchedNode, match_trees, merge_matched


class EngineMode(enum.Enum):
    UNSTRUCTURED = "unstructured"
    SEMISTRUCTURED = "semistructured"
    SESAME = "sesame"


def engine_mode(name: str) -> EngineMode:
    """The engine of that name, or a ValueError that lists the engines."""
    try:
        return EngineMode(name)
    except ValueError:
        names = ", ".join(mode.value for mode in EngineMode)
        raise ValueError(f"unknown engine {name!r}: expected one of {names}") from None


@dataclass(frozen=True)
class DriverConfig:
    mode: EngineMode = EngineMode.SESAME
    separators: SeparatorSet = field(default_factory=SeparatorSet)
    labels: tuple[str, str, str] = DEFAULT_LABELS
    base_marker: bool = False
    fallback_on_parse_error: bool = True


@dataclass
class EngineResult:
    output: bytes
    conflicts: int
    fell_back: bool = False
    fallback_reason: str = ""


def match_versions(base: bytes, left: bytes, right: bytes) -> MatchedNode | Exception:
    """The three versions parsed and matched, or the exception that raised."""
    try:
        return match_trees(*parse_versions(base, left, right))
    except Exception as exc:  # handed to each engine, which reports it
        return exc


def run_engine(
    base: bytes,
    left: bytes,
    right: bytes,
    config: DriverConfig,
    matched: MatchedNode | Exception | None = None,
) -> EngineResult:
    """Merge three file contents per the configured engine mode.

    The declaration-aware modes merge ``matched``, the result of
    ``match_versions`` on these contents; when it is None they compute it.
    A parse failure falls back to the unstructured engine when
    ``fallback_on_parse_error`` is set; otherwise the ParseError, like any
    other exception from parsing or matching, propagates.  The conflict
    count is the number of conflict regions in the merge outcome.
    """
    fell_back, reason = False, ""
    if config.mode is EngineMode.UNSTRUCTURED:
        outcome = merge_texts_outcome(base, left, right)
    else:
        if matched is None:
            matched = match_versions(base, left, right)
        if isinstance(matched, ParseError) and config.fallback_on_parse_error:
            outcome = merge_texts_outcome(base, left, right)
            fell_back, reason = True, str(matched)
        elif isinstance(matched, Exception):
            raise matched
        else:
            sesame = config.mode is EngineMode.SESAME
            outcome = merge_matched(matched, config.separators if sesame else None)
    rendered = render(outcome, config.labels, config.base_marker)
    return EngineResult(rendered, outcome.conflict_count(), fell_back, reason)


def merge_files(
    base_path: str | Path,
    left_path: str | Path,
    right_path: str | Path,
    out_path: str | Path,
    config: DriverConfig,
) -> int:
    """Merge three files into ``out_path``; returns the process exit code.

    0 means a clean merge, 1 at least one conflict block, 2 an I/O error,
    an unparseable input with fallback disabled, or an internal failure.
    Nothing is written on exit 2.
    """
    try:
        base, left, right = (
            Path(p).read_bytes() for p in (base_path, left_path, right_path)
        )
    except OSError as exc:
        print(f"sesame: cannot read input: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_engine(base, left, right, config)
    except ParseError as exc:
        print(f"sesame: parse failed and fallback is disabled: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error: report, write nothing
        print(f"sesame: internal error: {exc}", file=sys.stderr)
        return 2
    if result.fell_back:
        print(
            f"sesame: warning: {config.mode.value} parse failed"
            f" ({result.fallback_reason}); used unstructured merge",
            file=sys.stderr,
        )
    try:
        _write_atomic(Path(out_path), result.output)
    except OSError as exc:  # it may name the temporary file: name the output
        print(
            f"sesame: cannot write output: {out_path}: {exc.strerror or exc}",
            file=sys.stderr,
        )
        return 2
    return 1 if result.conflicts else 0


def git_driver_entry(
    ancestor: str | Path,
    current: str | Path,
    other: str | Path,
    config: DriverConfig,
) -> int:
    """Git merge-driver contract: merge %O/%A/%B, overwriting the %A file."""
    return merge_files(ancestor, current, other, current, config)


def _write_atomic(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` through a temporary file beside it.

    A symlink is followed to the file it names, so the link stays and its
    target gets the data; a dangling link creates its target.  The result
    keeps the mode of the file it replaces; a new file gets the mode
    ``open`` would give it, 0666 less the umask.  A target that exists and
    is no regular file, such as a FIFO or a device, is written in place.
    """
    path = Path(os.path.realpath(path))
    try:
        st_mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = 0o666 & ~_umask()
    else:
        if not stat.S_ISREG(st_mode):
            with open(path, "wb") as handle:
                handle.write(data)
            return
        mode = stat.S_IMODE(st_mode)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".sesame-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.chmod(tmp, mode)  # mkstemp creates the file with mode 0600
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _umask() -> int:
    mask = os.umask(0)  # the umask can only be read by setting it
    os.umask(mask)
    return mask


def load_config_file(path: str | Path) -> dict[str, str]:
    """Read a plain key=value config file; '#' starts a comment line."""
    values: dict[str, str] = {}
    # open("") fails, where Path("") would name the current directory; a
    # byte order mark at the start of the file is skipped
    with open(path, encoding="utf-8-sig") as handle:
        text = handle.read()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"config key repeated: {key!r}")
        values[key] = value.strip()
    return values


def apply_config_values(config: DriverConfig, values: dict[str, str]) -> DriverConfig:
    """Overlay key=value settings, from a config file or flags, onto a DriverConfig."""
    for key, value in values.items():
        if key == "mode":
            config = replace(config, mode=engine_mode(value))
        elif key == "separators":
            config = replace(config, separators=SeparatorSet.from_spec(value))
        elif key == "labels":
            if "\n" in value or "\r" in value:
                # a marker line holds its label: a line break would split it
                raise ValueError("labels must not hold a line break (LF or CR)")
            parts = tuple(part.strip() for part in value.split(","))
            if len(parts) != 3:
                raise ValueError("labels must be three comma-separated names")
            config = replace(config, labels=parts)
        elif key == "diff3-style":
            config = replace(config, base_marker=_boolean(key, value))
        elif key == "fallback":
            config = replace(config, fallback_on_parse_error=_boolean(key, value))
        else:
            raise ValueError(f"unknown config key: {key!r}")
    return config


def _boolean(key: str, value: str) -> bool:
    word = value.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"{key} must be one of 1/true/yes or 0/false/no, not {value!r}")
    return word in ("1", "true", "yes")
