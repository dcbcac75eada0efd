"""Tests for tools/repro_lint.py: every rule proven on known-good and
known-bad fixtures, pragma handling, and the whole-tree-clean gate."""

from __future__ import annotations

import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "repro_lint", REPO / "tools" / "repro_lint.py"
)
repro_lint = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("repro_lint", repro_lint)
_SPEC.loader.exec_module(repro_lint)

STORE_PATH = "src/repro/store/history_store.py"


def lint(source: str, path: str = "src/repro/some_module.py"):
    return repro_lint.lint_source(textwrap.dedent(source), path)


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# rule: fileops-seam
# ---------------------------------------------------------------------------

class TestFileopsSeam:
    BAD = """
        import os

        def recover(path):
            with open(path, "rb") as fh:
                data = fh.read()
            os.replace(path, path)
            os.fsync(3)
            return data
    """

    def test_known_bad_in_store(self):
        findings = lint(self.BAD, STORE_PATH)
        assert rules_of(findings) == ["fileops-seam"] * 3

    def test_known_good_routed_through_seam(self):
        good = """
            def recover(path, ops):
                with ops.open(path, "rb") as fh:
                    data = fh.read()
                ops.replace(path, path)
                return data
        """
        assert lint(good, STORE_PATH) == []

    def test_scope_is_store_only(self):
        # the same raw calls are fine outside store/
        assert lint(self.BAD, "src/repro/core/engine.py") == []

    def test_faults_py_and_tests_are_exempt(self):
        assert lint(self.BAD, "src/repro/store/faults.py") == []
        assert lint(self.BAD, "tests/store/test_x.py") == []


# ---------------------------------------------------------------------------
# rules: swallow-baseexception / broad-swallow
# ---------------------------------------------------------------------------

class TestSwallows:
    def test_bare_except_is_flagged(self):
        bad = """
            def f():
                try:
                    work()
                except:
                    pass
        """
        assert rules_of(lint(bad)) == ["swallow-baseexception"]

    def test_baseexception_without_reraise_is_flagged(self):
        bad = """
            def f():
                try:
                    work()
                except BaseException as exc:
                    log(exc)
        """
        assert rules_of(lint(bad)) == ["swallow-baseexception"]

    def test_baseexception_with_reraise_is_clean(self):
        good = """
            def f():
                try:
                    work()
                except BaseException:
                    cleanup()
                    raise
        """
        assert lint(good) == []

    def test_broad_swallow_is_flagged(self):
        bad = """
            def f():
                try:
                    work()
                except Exception:
                    fallback()
        """
        assert rules_of(lint(bad)) == ["broad-swallow"]

    def test_binding_the_exception_is_clean(self):
        good = """
            def f():
                try:
                    work()
                except Exception as exc:
                    record(exc)
        """
        assert lint(good) == []

    def test_narrow_types_are_clean(self):
        good = """
            def f():
                try:
                    work()
                except (OSError, ValueError):
                    fallback()
        """
        assert lint(good) == []


# ---------------------------------------------------------------------------
# rule: no-print
# ---------------------------------------------------------------------------

class TestNoPrint:
    BAD = """
        def answer(query):
            print("answering", query)
            return 42
    """

    def test_bare_print_in_library_is_flagged(self):
        findings = lint(self.BAD)
        assert rules_of(findings) == ["no-print"]

    def test_scope_is_src_repro_only(self):
        assert lint(self.BAD, "tools/some_tool.py") == []
        assert lint(self.BAD, "tests/test_x.py") == []
        assert lint(self.BAD, "src/repro/tests/test_x.py") == []

    def test_method_and_attribute_prints_are_not_flagged(self):
        good = """
            def report(console, value):
                console.print(value)          # rich-style object method
                return plan_fingerprint(value)  # name merely contains it
        """
        assert lint(good) == []

    def test_pragma_exempts_user_facing_output(self):
        good = """
            def emit(line):
                # repro-lint: allow[no-print] -- CLI user-facing output
                print(line)
        """
        assert lint(good) == []


# ---------------------------------------------------------------------------
# rule: unlocked-module-state
# ---------------------------------------------------------------------------

class TestUnlockedModuleState:
    def test_unlocked_mutation_is_flagged(self):
        bad = """
            _CACHE = {}

            def put(key, value):
                _CACHE[key] = value
        """
        assert rules_of(lint(bad)) == ["unlocked-module-state"]

    def test_mutation_under_module_lock_is_clean(self):
        good = """
            import threading

            _CACHE = {}
            _LOCK = threading.Lock()

            def put(key, value):
                with _LOCK:
                    _CACHE[key] = value
        """
        assert lint(good) == []

    def test_method_mutations_and_factories_are_seen(self):
        bad = """
            from collections import OrderedDict

            _ENTRIES = OrderedDict()

            def remember(x):
                _ENTRIES.setdefault(x, 0)
        """
        assert rules_of(lint(bad)) == ["unlocked-module-state"]

    def test_module_level_init_is_clean(self):
        # populating at import time (not inside a function) is fine
        good = """
            _TABLE = {}
            _TABLE["x"] = 1
        """
        assert lint(good) == []

    def test_local_shadow_is_clean(self):
        good = """
            def f():
                cache = {}
                cache["x"] = 1
                return cache
        """
        assert lint(good) == []

    def test_global_rebinding_is_flagged(self):
        # the shape of the process-default backend this rule was blind to
        bad = """
            _default = "compiled"

            def set_default(name):
                global _default
                previous = _default
                _default = name
                return previous
        """
        findings = lint(bad)
        assert rules_of(findings) == ["unlocked-module-state"]
        assert "global '_default' rebound" in findings[0].message

    def test_global_rebinding_under_module_lock_is_clean(self):
        good = """
            import threading

            _LOCK = threading.Lock()
            _hits = _misses = 0

            def record(hit):
                global _hits, _misses
                with _LOCK:
                    if hit:
                        _hits += 1
                    else:
                        _hits, _misses = _hits, _misses + 1
        """
        assert lint(good) == []

    def test_global_declaration_belongs_to_its_own_function(self):
        # reading a global, or assigning a same-named local in a nested
        # function that did not declare it, rebinds nothing
        good = """
            _mode = "a"

            def outer():
                global _mode
                current = _mode

                def inner():
                    _mode = "local"
                    return _mode

                return current, inner()
        """
        assert lint(good) == []


# ---------------------------------------------------------------------------
# rule: backend-dispatch
# ---------------------------------------------------------------------------

class TestBackendDispatch:
    BAD = """
        from .exec.backend import BACKEND_SQLITE, resolve_backend

        def evaluate(op, db, backend=None):
            resolved = resolve_backend(backend)
            if resolved == BACKEND_SQLITE:
                return run_sqlite(op, db)
            if resolved == "vector":
                return run_vector(op, db)
            if backend in ("compiled", "interpreted"):
                return run_in_process(op, db)
            return backend_module.BACKEND_COMPILED != resolved
    """

    def test_name_comparisons_are_flagged(self):
        findings = lint(self.BAD, "src/repro/relational/algebra.py")
        assert rules_of(findings) == ["backend-dispatch"] * 4

    def test_the_seam_module_and_non_library_code_are_exempt(self):
        assert lint(self.BAD, "src/repro/relational/exec/backend.py") == []
        assert lint(self.BAD, "benchmarks/bench_backend_compiled.py") == []
        assert lint(self.BAD, "tests/test_x.py") == []

    def test_asking_the_backend_is_clean(self):
        good = """
            COSTS = {"compiled": 1.0, "sqlite": 3.5}

            def evaluate(op, db, backend=None):
                return resolve_backend(backend).evaluate(op, db)

            def pool_for(backend):
                kind = resolve_backend(backend).pool_kind
                return make_threads() if kind == "thread" else make_procs()

            def cost(backend):
                return COSTS.get(backend, COSTS["compiled"])
        """
        assert lint(good, "src/repro/core/pool.py") == []

    def test_pragma_exempts_a_comparison_that_is_not_dispatch(self):
        good = """
            def answer(backend):
                try:
                    return run(backend)
                except sqlite3.Error:
                    # repro-lint: allow[backend-dispatch] -- only sqlite may degrade on a sqlite3.Error
                    if backend != "sqlite":
                        raise
        """
        assert lint(good, "src/repro/service/server.py") == []


# ---------------------------------------------------------------------------
# rule: long-function
# ---------------------------------------------------------------------------

class TestLongFunction:
    @staticmethod
    def function_of(lines: int) -> str:
        body = "\n".join(f"    x = {i}" for i in range(lines - 1))
        return f"def answer(self):\n{body}\n"

    def test_a_function_over_80_lines_is_flagged(self):
        findings = lint(self.function_of(81), "src/repro/service/core.py")
        assert rules_of(findings) == ["long-function"]
        assert findings[0].line == 1 and "81 lines" in findings[0].message

    def test_methods_and_docstrings_count(self):
        method = (
            "class Service:\n"
            "    def answer(self):\n"
            '        """' + "\n".join(["doc"] * 60) + '"""\n'
            + "\n".join(f"        x = {i}" for i in range(25)) + "\n"
        )
        findings = lint(method, "src/repro/service/core.py")
        assert rules_of(findings) == ["long-function"]

    def test_80_lines_is_the_limit_not_over_it(self):
        assert lint(self.function_of(80), "src/repro/service/core.py") == []

    def test_scope_is_the_service_package_only(self):
        long = self.function_of(200)
        assert lint(long, "src/repro/core/batch.py") == []
        assert lint(long, "tests/service/test_x.py") == []
        assert lint(long, "benchmarks/service/bench.py") == []


# ---------------------------------------------------------------------------
# pragmas
# ---------------------------------------------------------------------------

class TestPragmas:
    def test_same_line_pragma_suppresses(self):
        src = """
            def f():
                try:
                    work()
                except Exception:  # repro-lint: allow[broad-swallow] -- degrades safely
                    fallback()
        """
        assert lint(src) == []

    def test_preceding_line_pragma_suppresses(self):
        src = """
            def f():
                try:
                    work()
                # repro-lint: allow[broad-swallow] -- degrades safely
                except Exception:
                    fallback()
        """
        assert lint(src) == []

    def test_pragma_requires_a_reason(self):
        src = """
            def f():
                try:
                    work()
                except Exception:  # repro-lint: allow[broad-swallow]
                    fallback()
        """
        assert rules_of(lint(src)) == ["broad-swallow"]

    def test_pragma_rule_id_must_match(self):
        src = """
            def f():
                try:
                    work()
                except Exception:  # repro-lint: allow[fileops-seam] -- wrong rule
                    fallback()
        """
        assert rules_of(lint(src)) == ["broad-swallow"]

    def test_pragma_two_lines_above_does_not_apply(self):
        src = """
            def f():
                try:
                    work()
                # repro-lint: allow[broad-swallow] -- too far away
                # an interposed comment line breaks adjacency
                except Exception:
                    fallback()
        """
        assert rules_of(lint(src)) == ["broad-swallow"]

    def test_multiple_rules_in_one_pragma(self):
        src = """
            def f():
                try:
                    work()
                except Exception:  # repro-lint: allow[broad-swallow, fileops-seam] -- both
                    fallback()
        """
        assert lint(src) == []


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

class TestDriver:
    def test_syntax_error_is_reported_not_raised(self):
        findings = repro_lint.lint_source("def broken(:", "x.py")
        assert rules_of(findings) == ["syntax-error"]

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert repro_lint.main([str(clean)]) == 0
        assert "clean" in capsys.readouterr().out
        dirty = tmp_path / "store" / "dirty.py"
        dirty.parent.mkdir()
        dirty.write_text("def f(p):\n    return open(p)\n")
        assert repro_lint.main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "fileops-seam" in out and "1 finding(s)" in out

    def test_list_rules(self, capsys):
        assert repro_lint.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in repro_lint.RULES:
            assert rule in out

    def test_whole_tree_is_clean(self):
        """The acceptance gate: zero findings across the shipped tree."""
        findings = repro_lint.lint_paths(
            [REPO / "src", REPO / "tools", REPO / "benchmarks"]
        )
        assert findings == [], "\n".join(str(f) for f in findings)
