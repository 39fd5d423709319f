"""Smoke test of ``scripts/src_lines.py``, the source line counter."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "src_lines.py"


def _load():
    spec = importlib.util.spec_from_file_location("scripts_src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kinds_add_up_to_the_non_blank_lines():
    counts = _load().count_dir(ROOT / "src" / "crysturn")
    assert min(counts.values()) > 0
    assert counts["code"] + counts["docstring"] + counts["comment"] == counts["non_blank"]


def test_each_kind_is_told_apart(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Module\n\ndocstring."""\n\n# a comment\n'
        'def f():\n    """One line."""\n    x = "not a docstring"\n    return x\n',
        encoding="utf-8",
    )
    counts = _load().count_dir(tmp_path)
    assert counts == {"code": 3, "docstring": 3, "comment": 1, "non_blank": 7}


def test_prints_one_line_per_directory(tmp_path):
    (tmp_path / "m.py").write_text("x = 1\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == f"{tmp_path}: code 1, docstring 0, comment 0, non-blank 1\n"
