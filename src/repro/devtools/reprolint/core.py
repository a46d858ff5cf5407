"""``reprolint`` core: findings, the rule registry, suppressions.

The framework is deliberately small: a rule is a class with a
``rule_id``, a one-line ``title``, a ``rationale`` tying it to the
paper's reproducibility requirements, and a ``check(ctx)`` generator
over :class:`Finding` objects.  Rules register themselves with the
:func:`register` decorator; the runner instantiates every registered
rule (or a selected subset), parses each file once into a shared
:class:`FileContext`, and filters the combined findings through the
per-line / per-file suppression comments::

    x = np.random.rand(3)  # reprolint: disable=RL001  -- fixture needs raw draws
    # reprolint: disable-file=RL007

``disable`` acts on the physical line carrying the comment;
``disable-file`` acts on the whole file from any line.  Rule lists are
comma-separated and ``all`` disables every rule.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Type

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "register",
    "all_rule_ids",
    "get_rules",
    "iter_python_files",
    "read_source",
    "decode_failure_finding",
]

#: Packages whose inner loops feed the paper's headline figures; some
#: rules (RL005) only apply inside them.
HOT_PACKAGES = frozenset({"sensing", "recovery", "coding"})

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: a rule violation at a source location."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        """The conventional one-line ``path:line:col: ID message`` form."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable mapping (stable keys, used by the reporter)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


def _parse_suppressions(
    source: str,
) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Extract ``(per-line, per-file)`` suppression sets from comments."""
    line_disables: Dict[int, Set[str]] = {}
    file_disables: Set[str] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return line_disables, file_disables
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(tok.string)
        if match is None:
            continue
        ids = {part.strip().upper() for part in match.group("rules").split(",")}
        if match.group("kind") == "disable-file":
            file_disables |= ids
        else:
            line_disables.setdefault(tok.start[0], set()).update(ids)
    return line_disables, file_disables


class FileContext:
    """Everything a rule needs about one source file, parsed once.

    Attributes
    ----------
    path:
        The file's path as given to the runner.
    source:
        Raw module text.
    tree:
        The parsed :mod:`ast` module node.
    numpy_aliases:
        Names the module binds to the ``numpy`` package (``np`` …).
    nprandom_aliases:
        Names bound directly to ``numpy.random``.
    """

    def __init__(self, path: Path, source: str) -> None:
        self.path = Path(path)
        self.source = source
        self.tree = ast.parse(source, filename=str(path))
        self.line_disables, self.file_disables = _parse_suppressions(source)
        self.numpy_aliases: Set[str] = set()
        self.nprandom_aliases: Set[str] = set()
        self.legacy_random_imports: Dict[str, ast.ImportFrom] = {}
        self._collect_numpy_aliases()

    def _collect_numpy_aliases(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        self.numpy_aliases.add(alias.asname or "numpy")
                    elif alias.name == "numpy.random" and alias.asname:
                        self.nprandom_aliases.add(alias.asname)
                    elif alias.name == "numpy.random":
                        self.numpy_aliases.add("numpy")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            self.nprandom_aliases.add(alias.asname or "random")
                elif node.module == "numpy.random":
                    for alias in node.names:
                        self.legacy_random_imports[alias.asname or alias.name] = node

    @property
    def is_hot_path(self) -> bool:
        """True when the file lives in a hot package (see HOT_PACKAGES)."""
        return any(part in HOT_PACKAGES for part in self.path.parts)

    def is_suppressed(self, finding: Finding) -> bool:
        """Whether a suppression comment covers this finding."""
        for ids in (self.file_disables, self.line_disables.get(finding.line, ())):
            if finding.rule_id in ids or "ALL" in ids:
                return True
        return False


class Rule:
    """Base class for lint rules; subclass and :func:`register`.

    ``scope`` partitions the registry between the two runner passes:
    ``"file"`` rules see one :class:`FileContext` at a time, ``"program"``
    rules run once over the whole
    :class:`~repro.devtools.reprolint.project.ProjectModel` after every
    file has been summarized.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    scope: str = "file"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file (override in subclasses)."""
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            message=message,
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY and _REGISTRY[cls.rule_id] is not cls:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rule_ids() -> List[str]:
    """Registered rule ids, sorted."""
    return sorted(_REGISTRY)


def get_rules(
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Rule]:
    """Instantiate the selected rules (default: every registered rule)."""
    chosen = {s.upper() for s in select} if select else set(_REGISTRY)
    dropped = {s.upper() for s in ignore} if ignore else set()
    unknown = (chosen | dropped) - set(_REGISTRY)
    if unknown:
        raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    return [_REGISTRY[rid]() for rid in sorted(chosen - dropped)]


def read_source(path: Path) -> str:
    """Decode one source file the way the Python tokenizer would.

    Honors a UTF-8 BOM and PEP 263 ``# -*- coding: ... -*-`` declarations
    (the plain ``read_text(encoding="utf-8")`` the runner used before
    crashed the whole run on either).  Decode failures — an unknown
    codec name, or bytes invalid under the declared codec — are raised
    for the caller to convert into an ``RL000`` finding via
    :func:`decode_failure_finding`.
    """
    data = Path(path).read_bytes()
    try:
        encoding, _ = tokenize.detect_encoding(io.BytesIO(data).readline)
        source = data.decode(encoding)
    except (LookupError, UnicodeDecodeError, SyntaxError) as exc:
        raise UnicodeDecodeError(
            "reprolint", data[:64], 0, 1, f"cannot decode {path}: {exc}"
        ) from exc
    # detect_encoding leaves the BOM in place for plain utf-8; strip it
    # so ast.parse does not choke on the leading U+FEFF.
    return source.lstrip("\ufeff")


def decode_failure_finding(path: Path, exc: Exception) -> Finding:
    """The ``RL000`` finding for a file that cannot be read or decoded.

    An ``OSError`` (missing target, no permission) reads "file cannot be
    read"; a decode failure from :func:`read_source` reads "file cannot
    be decoded".
    """
    if isinstance(exc, OSError):
        message = f"file cannot be read: {exc}"
    else:
        message = f"file cannot be decoded: {getattr(exc, 'reason', None) or exc}"
    return Finding(
        path=str(path),
        line=1,
        col=0,
        rule_id="RL000",
        message=message,
    )


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """All ``.py`` files under ``paths``, skipping caches and hidden dirs."""
    for path in paths:
        path = Path(path)
        if path.is_file():
            yield path
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                parts = sub.relative_to(path).parts
                if any(p.startswith(".") or p == "__pycache__" for p in parts):
                    continue
                yield sub
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
