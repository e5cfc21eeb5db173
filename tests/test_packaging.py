"""Package metadata and what importing the pipeline modules pulls in."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_every_console_script_target_imports():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_pipeline_modules_leave_numpy_unimported():
    # a fresh interpreter: this one has numpy loaded by other test modules
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import avqabench.records, avqabench.split, avqabench.evaluate; "
        "print('numpy' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
