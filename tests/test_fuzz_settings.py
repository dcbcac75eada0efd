"""The fuzz knobs: an unset or empty ``MAHIF_FUZZ_SEED`` /
``MAHIF_FUZZ_SCALE`` takes the default (``fuzz_differential.env_number``),
so a CI variable that expands to nothing runs the suite at its fixed
seed instead of failing collection."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fuzz_differential import env_number

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("value", (None, "", "  "), ids=("unset", "empty", "blank"))
def test_a_missing_value_is_the_default(monkeypatch, value):
    if value is None:
        monkeypatch.delenv("MAHIF_TEST_KNOB", raising=False)
    else:
        monkeypatch.setenv("MAHIF_TEST_KNOB", value)
    assert env_number("MAHIF_TEST_KNOB", 7) == 7
    assert env_number("MAHIF_TEST_KNOB", 0.5) == 0.5


def test_a_value_is_read_as_the_default_type(monkeypatch):
    monkeypatch.setenv("MAHIF_TEST_KNOB", " 42 ")
    assert env_number("MAHIF_TEST_KNOB", 7) == 42
    assert env_number("MAHIF_TEST_KNOB", 0.5) == 42.0
    monkeypatch.setenv("MAHIF_TEST_KNOB", "x")
    with pytest.raises(ValueError):
        env_number("MAHIF_TEST_KNOB", 7)


def test_seeded_modules_collect_under_empty_knobs():
    env = dict(os.environ, MAHIF_FUZZ_SEED="", MAHIF_FUZZ_SCALE="")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "--collect-only", "-q",
            "-p", "no:cacheprovider",
            "tests/test_statement_replay.py",
            "tests/test_store_faults.py",
            "tests/test_result_cache.py",
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
