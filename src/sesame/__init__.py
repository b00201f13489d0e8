"""Three-way merging for Java-like sources.

Three engines share one pipeline:

* unstructured — plain line-based merging (diff3 semantics);
* semistructured — declarations matched by kind and identifier, bodies
  merged as text;
* sesame — semistructured with separator-enhanced body merging: text
  between language separators such as ``{ } ( ) ;`` is isolated onto
  placeholder-marked lines before the textual merge and rejoined after.

The ``harness`` module replays recorded merge scenarios through engine
pairs and reports conflicts, divergence, and added false positives and
negatives against the repository's own merge result.
"""

from .driver import (
    DriverConfig,
    EngineMode,
    EngineResult,
    git_driver_entry,
    merge_files,
    run_engine,
)
from .javaparse import ParseError

__all__ = [
    "DriverConfig",
    "EngineMode",
    "EngineResult",
    "ParseError",
    "git_driver_entry",
    "merge_files",
    "run_engine",
]
