"""Three-way merging for Java-like sources.

Three engines share one pipeline:

* unstructured — plain line-based merging (diff3 semantics);
* semistructured — declarations matched by kind and identifier, bodies
  merged as text;
* sesame — semistructured with separator-enhanced body merging: a body
  is cut into pieces at language separators such as ``{ } ( ) ;`` as well
  as at line breaks, and the textual merge aligns those pieces; each is
  the text's own bytes, so the merged regions are text as they stand.

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
