"""Developer tooling: static analysis (``reprolint``) + runtime contracts.

``repro.devtools`` is intentionally import-light — nothing in the
pipeline's hot paths depends on it except the tiny
:mod:`~repro.devtools.contracts` assertions, so shipping builds can drop
the lint machinery entirely.

* :mod:`repro.devtools.reprolint` — the AST lint framework, the
  RL001–RL007 file rules and the RL100–RL105 whole-program rules
  (``repro lint`` / ``make lint``).
* :mod:`repro.devtools.contracts` — ``check_shape`` / ``check_dtype`` /
  ``check_finite`` assertions and the ``array_contract`` decorator used
  on the public entry points.
"""

from __future__ import annotations

from repro.devtools.contracts import (
    ContractError,
    array_contract,
    check_dtype,
    check_finite,
    check_shape,
)

__all__ = [
    "ContractError",
    "array_contract",
    "check_dtype",
    "check_finite",
    "check_shape",
]
