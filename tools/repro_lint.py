#!/usr/bin/env python3
"""repro-lint: AST-based linter for this repository's hard invariants.

The codebase carries invariants that ordinary linters cannot know about;
this tool enforces them mechanically (DESIGN.md, "Static analysis"):

``fileops-seam``
    Durability code under ``src/repro/store/`` must route every
    filesystem touch through the :class:`~repro.store.faults.FileOps`
    seam so the crash-injection fuzzer sees it.  Raw ``open``/
    ``os.replace``/``os.fsync``/``os.rename``/``os.open``/
    ``os.truncate`` calls anywhere in ``store/`` outside ``faults.py``
    are findings: each one is a write path the fuzzer cannot kill, i.e.
    an untested crash window.

``unlocked-module-state``
    A module-level mutable container (dict/list/set/...) mutated inside
    a function, or a module-level name rebound through a ``global``
    statement, must do so under a ``with``-statement on a module-level
    ``threading.Lock``/``RLock`` (the ``sql_backend.py`` connection-
    cache pattern).  If the module declares no lock at all, every
    mutation is a finding.

``backend-dispatch``
    Which executor runs is decided in exactly one module,
    ``src/repro/relational/exec/backend.py`` (DESIGN.md, "Execution
    backends › Switching").  Anywhere else under ``src/repro/``,
    comparing a value to a ``BACKEND_*`` constant or to one of the four
    backend-name literals is a finding: it is the first arm of an
    if-chain that the next backend will miss.  Ask the resolved
    ``Backend`` instead, or allowlist a comparison that is not dispatch.

``swallow-baseexception``
    ``except BaseException:`` and bare ``except:`` handlers swallow
    :class:`~repro.store.faults.SimulatedCrash` (deliberately a
    ``BaseException`` so fault injection can't be caught by accident)
    unless the handler re-raises; handlers without a bare ``raise`` are
    findings.

``broad-swallow``
    ``except Exception:`` handlers that neither bind the exception
    (``as exc``) nor re-raise discard errors anonymously (the
    ``except Exception: pass`` family); narrow them to the types the
    code actually expects, bind and record the error, or allowlist the
    intentionally-broad defensive handlers with a pragma.

``long-function``
    Under ``src/repro/service/`` a function or method longer than 80
    physical lines (``def`` line to last line, docstring included) is a
    finding.  The service's ``answer`` once grew to 222 lines with the
    cache rule buried in a nested closure; split a long function into
    named stages instead.

``no-print``
    Library code under ``src/repro/`` must not call bare ``print()``:
    observability goes through the structured ``repro.obs`` layer
    (metrics, traces, ``log_event``), keeping stdout clean for actual
    deliverables.  User-facing output — the CLI, benchmark report
    tables — is allowlisted with a pragma.

Intentional exceptions are allowlisted in-line::

    except Exception:  # repro-lint: allow[broad-swallow] -- reason why

The pragma may sit on the offending line or the line above it; the rule
id must match, and a reason after ``--`` is mandatory.

Usage::

    python tools/repro_lint.py [--list-rules] [paths...]

Paths default to ``src`` and ``tools``; exit status 1 when findings
remain.  The module is importable (``lint_source``/``lint_path``) for
the unit tests' known-good/known-bad fixtures.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Finding",
    "RULES",
    "lint_source",
    "lint_path",
    "lint_paths",
    "main",
]

RULES: dict[str, str] = {
    "fileops-seam": (
        "raw filesystem call in store/ outside faults.py (bypasses the "
        "FileOps crash-injection seam)"
    ),
    "unlocked-module-state": (
        "module-level mutable container mutated, or global rebound, "
        "outside a module-level lock's with-block"
    ),
    "backend-dispatch": (
        "comparison to a backend name under src/repro/ outside "
        "relational/exec/backend.py (dispatch belongs to the Backend seam)"
    ),
    "swallow-baseexception": (
        "bare except / except BaseException without re-raise (would "
        "swallow SimulatedCrash)"
    ),
    "broad-swallow": (
        "except Exception without binding or re-raise (anonymous "
        "swallow)"
    ),
    "long-function": (
        "function longer than 80 lines under src/repro/service/ (split "
        "it into named stages)"
    ),
    "no-print": (
        "bare print() in library code under src/repro/ (route through "
        "repro.obs.logging.log_event, or allowlist user-facing output)"
    ),
}

_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*allow\[(?P<rules>[a-z0-9, -]+)\]\s*--\s*\S"
)

#: os.* functions that touch the filesystem in ways the FileOps seam
#: wraps (or should wrap).
_RAW_OS_CALLS = frozenset(
    {"replace", "fsync", "rename", "open", "truncate", "remove", "unlink"}
)

#: Constructors/literals treated as module-level mutable containers.
_MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "OrderedDict", "defaultdict", "Counter", "deque"}
)

#: Method calls that mutate a container in place.
_MUTATING_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "appendleft",
        "move_to_end",
    }
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _pragma_lines(source: str) -> dict[int, frozenset[str]]:
    """Map 1-based line number -> rule ids allowlisted on that line."""
    allowed: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(text)
        if match:
            rules = frozenset(
                part.strip()
                for part in match.group("rules").split(",")
                if part.strip()
            )
            allowed[lineno] = rules
    return allowed


def _allowed(
    pragmas: dict[int, frozenset[str]], line: int, rule: str
) -> bool:
    """A pragma applies to its own line or the line directly below."""
    return rule in pragmas.get(line, frozenset()) or rule in pragmas.get(
        line - 1, frozenset()
    )


# -- rule: fileops-seam ------------------------------------------------------

def _in_store_scope(path: str) -> bool:
    parts = Path(path).parts
    return (
        "store" in parts
        and Path(path).name != "faults.py"
        and "tests" not in parts
    )


def _check_fileops_seam(
    tree: ast.AST, path: str
) -> Iterator[tuple[int, str, str]]:
    if not _in_store_scope(path):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            yield (
                node.lineno,
                "fileops-seam",
                "raw open() — route through FileOps.open so the fault "
                "fuzzer can inject a crash here",
            )
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "os"
            and func.attr in _RAW_OS_CALLS
        ):
            yield (
                node.lineno,
                "fileops-seam",
                f"raw os.{func.attr}() — route through the FileOps seam",
            )


# -- rule: no-print ----------------------------------------------------------

def _in_library_scope(path: str) -> bool:
    parts = Path(path).parts
    return "repro" in parts and "tests" not in parts


def _check_no_print(
    tree: ast.AST, path: str
) -> Iterator[tuple[int, str, str]]:
    """Library code must not print: observability goes through the
    structured ``repro.obs`` layer (metrics/traces/``log_event``), so
    stdout stays clean for the CLI's actual deliverables.  User-facing
    output (the CLI, benchmark reports) is allowlisted with a pragma.
    """
    if not _in_library_scope(path):
        return
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield (
                node.lineno,
                "no-print",
                "bare print() in library code — emit a structured "
                "log_event / metric instead, or allowlist user-facing "
                "output with a pragma",
            )


# -- rule: long-function -----------------------------------------------------

_MAX_SERVICE_FUNCTION_LINES = 80


def _check_long_functions(
    tree: ast.AST, path: str
) -> Iterator[tuple[int, str, str]]:
    parts = Path(path).parts
    if not _in_library_scope(path) or "service" not in parts:
        return
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        length = (node.end_lineno or node.lineno) - node.lineno + 1
        if length > _MAX_SERVICE_FUNCTION_LINES:
            yield (
                node.lineno,
                "long-function",
                f"{node.name}() is {length} lines long (limit "
                f"{_MAX_SERVICE_FUNCTION_LINES}) — split it into named "
                "stages",
            )


# -- rule: backend-dispatch --------------------------------------------------

#: Kept literal on purpose: the linter imports nothing from ``src``.
_BACKEND_NAMES = frozenset({"compiled", "interpreted", "sqlite", "vector"})
_BACKEND_CONSTANT = re.compile(r"^BACKEND_[A-Z]+$")


def _names_a_backend(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value in _BACKEND_NAMES
    if isinstance(node, ast.Name):
        return bool(_BACKEND_CONSTANT.match(node.id))
    if isinstance(node, ast.Attribute):
        return bool(_BACKEND_CONSTANT.match(node.attr))
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_a_backend(element) for element in node.elts)
    return False


def _check_backend_dispatch(
    tree: ast.AST, path: str
) -> Iterator[tuple[int, str, str]]:
    if not _in_library_scope(path) or Path(path).parts[-2:] == (
        "exec", "backend.py"
    ):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
            _names_a_backend(operand)
            for operand in (node.left, *node.comparators)
        ):
            yield (
                node.lineno,
                "backend-dispatch",
                "comparison to a backend name — dispatch through "
                "resolve_backend(...) and the Backend it returns, or "
                "allowlist a comparison that is not dispatch",
            )


# -- rules: exception swallowing --------------------------------------------

def _has_bare_raise(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(node, ast.Raise) and node.exc is None
        for node in ast.walk(handler)
    )


def _exception_names(type_node: ast.expr | None) -> list[str]:
    """Dotted/plain names caught by a handler's type expression."""
    if type_node is None:
        return []
    nodes: Iterable[ast.expr]
    if isinstance(type_node, ast.Tuple):
        nodes = type_node.elts
    else:
        nodes = [type_node]
    names = []
    for node in nodes:
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


def _check_swallows(
    tree: ast.AST, path: str
) -> Iterator[tuple[int, str, str]]:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        names = _exception_names(node.type)
        if node.type is None or "BaseException" in names:
            if not _has_bare_raise(node):
                what = (
                    "bare except:" if node.type is None
                    else "except BaseException:"
                )
                yield (
                    node.lineno,
                    "swallow-baseexception",
                    f"{what} without re-raise swallows SimulatedCrash "
                    "(and KeyboardInterrupt); catch Exception or "
                    "re-raise",
                )
            continue
        if "Exception" in names and not _has_bare_raise(node):
            if node.name is None:
                yield (
                    node.lineno,
                    "broad-swallow",
                    "except Exception without binding or re-raise "
                    "discards the error anonymously; narrow the type, "
                    "bind and record it, or allowlist with a pragma",
                )


# -- rule: unlocked-module-state ---------------------------------------------

def _module_level_names(
    tree: ast.Module,
) -> tuple[frozenset[str], frozenset[str]]:
    """(mutable container names, lock names) assigned at module level."""
    mutables: set[str] = set()
    locks: set[str] = set()
    for stmt in tree.body:
        targets: list[ast.expr]
        value: ast.expr | None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            continue
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)):
            mutables.update(names)
        elif isinstance(value, ast.Call):
            func = value.func
            callee = None
            if isinstance(func, ast.Name):
                callee = func.id
            elif isinstance(func, ast.Attribute):
                callee = func.attr
            if callee in _MUTABLE_FACTORIES:
                mutables.update(names)
            elif callee in ("Lock", "RLock"):
                locks.update(names)
    return frozenset(mutables), frozenset(locks)


def _check_unlocked_state(
    tree: ast.Module, path: str
) -> Iterator[tuple[int, str, str]]:
    mutables, locks = _module_level_names(tree)
    findings: list[tuple[int, str, str]] = []
    held = (
        f"holding one of the declared locks {sorted(locks)}"
        if locks
        else "any module-level lock declared"
    )

    def lock_guard(node: ast.With) -> bool:
        return any(
            isinstance(item.context_expr, ast.Name)
            and item.context_expr.id in locks
            for item in node.items
        )

    def visit(
        node: ast.AST,
        in_function: bool,
        under_lock: bool,
        rebindable: frozenset[str],
    ) -> None:
        if isinstance(node, ast.With) and lock_guard(node):
            under_lock = True
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            in_function = True
            rebindable = _declared_global(node)
        if in_function and not under_lock:
            mutated = _mutated_name(node)
            if mutated in mutables:
                findings.append(
                    (
                        node.lineno,
                        "unlocked-module-state",
                        f"module-level {mutated!r} mutated without {held}",
                    )
                )
            for name in sorted(_rebound_names(node) & rebindable):
                findings.append(
                    (
                        node.lineno,
                        "unlocked-module-state",
                        f"global {name!r} rebound without {held}",
                    )
                )
        for child in ast.iter_child_nodes(node):
            visit(child, in_function, under_lock, rebindable)

    visit(tree, False, False, frozenset())
    yield from findings


def _declared_global(function: ast.AST) -> frozenset[str]:
    """Names ``function`` itself declares ``global`` (a nested function's
    declarations are its own)."""
    declared: set[str] = set()
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Global):
            declared.update(node.names)
        elif not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            stack.extend(ast.iter_child_nodes(node))
    return frozenset(declared)


def _rebound_names(node: ast.AST) -> frozenset[str]:
    """Bare names this statement assigns to."""
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return frozenset()
    names: set[str] = set()
    while targets:
        target = targets.pop()
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            targets = [*targets, *target.elts]
    return frozenset(names)


def _mutated_name(node: ast.AST) -> str | None:
    """Name of the module-level container this node mutates, if any."""
    # cache.clear() / cache.append(...) / cache.setdefault(...)
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.attr in _MUTATING_METHODS
        ):
            return func.value.id
    # cache[k] = v / cache[k] += v
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                return target.value.id
    # del cache[k]
    if isinstance(node, ast.Delete):
        for target in node.targets:
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                return target.value.id
    return None


# -- driver ------------------------------------------------------------------

def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one module's source; ``path`` scopes path-dependent rules."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                path,
                exc.lineno or 0,
                "syntax-error",
                f"cannot parse: {exc.msg}",
            )
        ]
    pragmas = _pragma_lines(source)
    raw: list[tuple[int, str, str]] = []
    raw.extend(_check_fileops_seam(tree, path))
    raw.extend(_check_no_print(tree, path))
    raw.extend(_check_long_functions(tree, path))
    raw.extend(_check_backend_dispatch(tree, path))
    raw.extend(_check_swallows(tree, path))
    raw.extend(_check_unlocked_state(tree, path))
    findings = [
        Finding(path, line, rule, message)
        for line, rule, message in raw
        if not _allowed(pragmas, line, rule)
    ]
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


def lint_path(path: Path) -> list[Finding]:
    return lint_source(
        path.read_text(encoding="utf-8"), str(path)
    )


def lint_paths(paths: Iterable[Path]) -> list[Finding]:
    findings: list[Finding] = []
    for root in paths:
        if root.is_file():
            files: Iterable[Path] = [root]
        else:
            files = sorted(root.rglob("*.py"))
        for file in files:
            findings.extend(lint_path(file))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tools"],
        help="files or directories to lint (default: src tools)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table"
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule, description in sorted(RULES.items()):
            print(f"{rule:24s} {description}")
        return 0
    findings = lint_paths(Path(p) for p in args.paths)
    for finding in findings:
        print(finding)
    if findings:
        print(f"repro-lint: {len(findings)} finding(s)")
        return 1
    print("repro-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
