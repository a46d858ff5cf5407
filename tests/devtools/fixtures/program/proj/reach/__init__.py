"""RL105 fixture package: one registration import and two re-exports.

``plugins`` is imported as a submodule, so loading the package loads it.
``helper`` is re-exported and ``main`` imports it from the package, so
``helpers`` is reached.  ``unused`` is re-exported too, but nothing
imports it: a re-export alone reaches nothing, so ``orphan`` is flagged.
"""

from proj.reach import plugins  # noqa: F401
from proj.reach.helpers import helper
from proj.reach.orphan import unused

__all__ = ["helper", "unused"]
