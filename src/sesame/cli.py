"""Command line interface.

Subcommands:

* ``merge`` — three-way merge of files into an output file.
* ``git-driver`` — same merge, git merge-driver calling convention
  (%O %A %B; the result overwrites the %A file).
* ``harness run`` — replay a scenario directory through several engines
  and write the comparison report.

Exit codes for merging: 0 clean, 1 conflicts, 2 error.  Diagnostics go to
stderr only; merged output never mixes with them.
"""

from __future__ import annotations

import argparse
import sys

from .driver import (
    DriverConfig,
    EngineMode,
    apply_config_values,
    engine_mode,
    git_driver_entry,
    load_config_file,
    merge_files,
)
from .harness import render_report, run_harness

# config keys that engine flags override; each flag stores its value as a
# string under the key's name with "-" spelled "_"
_FLAG_KEYS = ("mode", "separators", "labels", "diff3-style", "fallback")
_DEFAULT_PAIRS = "unstructured:sesame,semistructured:sesame"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"sesame: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sesame",
        description="Three-way merge for Java-like sources with "
        "unstructured, semistructured, and separator-enhanced engines.",
    )
    sub = parser.add_subparsers(required=True)

    merge = sub.add_parser("merge", help="merge three files")
    merge.add_argument("base")
    merge.add_argument("left")
    merge.add_argument("right")
    merge.add_argument("-o", "--output", required=True)
    _add_engine_options(merge)
    merge.set_defaults(func=_cmd_merge)

    driver = sub.add_parser(
        "git-driver",
        help="git merge driver entry point (%%O %%A %%B); overwrites the "
        "current-version file",
    )
    driver.add_argument("ancestor")
    driver.add_argument("current")
    driver.add_argument("other")
    _add_engine_options(driver)
    driver.set_defaults(func=_cmd_git_driver)

    harness = sub.add_parser("harness", help="scenario replay harness")
    harness_sub = harness.add_subparsers(required=True)
    run = harness_sub.add_parser("run", help="replay a scenario directory")
    run.add_argument("scenarios")
    run.add_argument(
        "--tools",
        default="unstructured,semistructured,sesame",
        help="comma-separated engine list",
    )
    run.add_argument(
        "--pairs",
        default=None,
        help="comma-separated M:N engine pairs to compare (default: those of "
        f"{_DEFAULT_PAIRS} whose engines are both in --tools)",
    )
    run.add_argument("--out", default=None, help="write the report here")
    run.add_argument(
        "--export-queue", default=None, metavar="DIR",
        help="export unclassified and added-false-negative cases for review",
    )
    _add_engine_options(run, mode=False)  # --tools names the engines
    run.set_defaults(func=_cmd_harness_run)
    return parser


def _add_engine_options(cmd: argparse.ArgumentParser, mode: bool = True) -> None:
    if mode:
        cmd.add_argument(
            "--mode",
            choices=[m.value for m in EngineMode],
            default=None,
            help="merge engine (default: sesame)",
        )
    cmd.add_argument(
        "--separators",
        default=None,
        metavar="LIST",
        help='comma-separated single ASCII characters, e.g. "{,},(,),;"; not ","'
        " (the list delimiter), LF or CR (line terminators) or \"$\" (it makes"
        " up the stand-in for literals and comments)",
    )
    cmd.add_argument(
        "--labels",
        default=None,
        metavar="L,B,R",
        help="labels for conflict markers (left,base,right)",
    )
    cmd.add_argument(
        "--diff3-style",
        action="store_const",
        const="true",
        help="include the base section in conflict blocks",
    )
    cmd.add_argument(
        "--no-fallback",
        dest="fallback",
        action="store_const",
        const="false",
        help="fail (exit 2) instead of falling back to unstructured merge "
        "when parsing fails",
    )
    cmd.add_argument("--config", default=None, help="key=value config file")


def _engine_config(args: argparse.Namespace) -> DriverConfig:
    """The config file's settings, if one is given, overridden by the flags."""
    values = {} if args.config is None else load_config_file(args.config)
    for key in _FLAG_KEYS:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:  # a flag given empty is checked like the file's value
            values[key] = flag
    return apply_config_values(DriverConfig(), values)


def _cmd_merge(args: argparse.Namespace) -> int:
    config = _engine_config(args)
    return merge_files(args.base, args.left, args.right, args.output, config)


def _cmd_git_driver(args: argparse.Namespace) -> int:
    config = _engine_config(args)
    return git_driver_entry(args.ancestor, args.current, args.other, config)


def _cmd_harness_run(args: argparse.Namespace) -> int:
    tools: list[EngineMode] = []
    for name in args.tools.split(","):
        if name.strip():
            mode = engine_mode(name.strip())
            if mode in tools:
                raise ValueError(f"engine repeated in --tools: {mode.value}")
            tools.append(mode)
    if not tools:
        raise ValueError("no engine in --tools")
    pairs: list[tuple[EngineMode, EngineMode]] = []
    for chunk in (_DEFAULT_PAIRS if args.pairs is None else args.pairs).split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        m_name, sep, n_name = chunk.partition(":")
        if not sep:
            raise ValueError(f"malformed pair (expected M:N): {chunk!r}")
        pair = (engine_mode(m_name.strip()), engine_mode(n_name.strip()))
        if pair[0] is pair[1]:
            raise ValueError(f"pair names one engine twice: {pair[0].value}")
        if pair in pairs:
            raise ValueError(
                f"pair repeated in --pairs: {pair[0].value}:{pair[1].value}"
            )
        pairs.append(pair)
    if args.pairs is None:
        pairs = [pair for pair in pairs if pair[0] in tools and pair[1] in tools]
    for pair in pairs:
        for mode in pair:
            if mode not in tools:
                raise ValueError(f"pair uses engine not in --tools: {mode.value}")
    report = run_harness(
        args.scenarios, tools, pairs, args.out, args.export_queue, _engine_config(args)
    )
    if args.out is None:
        sys.stdout.write(render_report(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
