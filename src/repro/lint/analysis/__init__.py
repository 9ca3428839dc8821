"""repro.lint.analysis: the whole-program layer under the project rule.

The per-file rules (DET001, FRK001, ...) see one AST at a time; the
rule this package serves (DET010) needs to see the program.
The layer is split into per-module facts and a whole-program view built
from them:

- :mod:`repro.lint.analysis.summary` distills each module into a plain
  JSON-able :func:`build_summary` dict -- functions with import-resolved
  call records and taint atoms, classes with attribute types and
  dataclass fields.  A summary depends only on the file's bytes.
- :mod:`repro.lint.analysis.project` assembles summaries into a
  :class:`Project`: a global symbol table and annotation-driven call
  resolution.  Cheap to build once the summaries exist.
- :mod:`repro.lint.analysis.taint` (interprocedural seed taint) is
  the engine the project rule calls.
"""

from repro.lint.analysis.summary import build_summary
from repro.lint.analysis.project import Project

__all__ = ["build_summary", "Project"]
