"""Every configuration value is set by somebody.

A field of a config dataclass that no caller, benchmark, example or test
ever passes is one configuration of the engine that has never run: it
doubles what the suites would have to cover and covers nothing.  This
census fails when such a field is added — re-adding
``ProgramSlicingConfig.skip_modified_positions`` (only ever its default,
deleted in PR 20) fails it — so the next knob arrives with a caller.

Only *leaf* fields are counted: ``program_slicing``, ``compression`` and
``optimizer`` hold another config and are paths to leaves.
"""

import ast
import dataclasses
import pathlib
import sys
import typing

from repro.core.engine import MahifConfig
from repro.core.program_slicing import ProgramSlicingConfig
from repro.relational.optimizer import OptimizerConfig
from repro.symbolic.compress import CompressionConfig

CONFIGS = (
    MahifConfig,
    ProgramSlicingConfig,
    CompressionConfig,
    OptimizerConfig,
)
ROOT = pathlib.Path(__file__).resolve().parents[1]


def _config_calls() -> list[tuple[pathlib.Path, str, set[str]]]:
    """``(file, class name, keyword names)`` of every call of a config
    class anywhere in the tree."""
    names = {cls.__name__ for cls in CONFIGS}
    calls = []
    for top in ("src", "benchmarks", "examples", "tests"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                callee = getattr(
                    node.func, "id", getattr(node.func, "attr", None)
                )
                if callee in names:
                    calls.append(
                        (path, callee, {kw.arg for kw in node.keywords})
                    )
    return calls


def test_every_leaf_option_is_set_somewhere():
    calls = _config_calls()
    unset = []
    for cls in CONFIGS:
        hints = typing.get_type_hints(cls)
        defining = pathlib.Path(sys.modules[cls.__module__].__file__)
        passed = set().union(
            *(
                keywords
                for path, callee, keywords in calls
                if callee == cls.__name__ and path != defining
            )
        )
        unset += [
            f"{cls.__name__}.{field.name}"
            for field in dataclasses.fields(cls)
            if hints[field.name] not in CONFIGS and field.name not in passed
        ]
    assert not unset, (
        f"option values nothing ever sets: {unset} — make them constants, "
        "or add the caller that needs another value"
    )
