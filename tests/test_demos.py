"""Every script under demos/ runs to completion against the package source."""

import os
import subprocess
import sys
from pathlib import Path

import cmtop

SRC = Path(cmtop.__file__).resolve().parents[1]
ROOT = SRC.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _tree():
    """The repository's files, without hidden and cache directories."""
    return sorted(p for p in ROOT.rglob("*")
                  if not any(part.startswith(".") or part == "__pycache__"
                             for part in p.relative_to(ROOT).parts))


def test_demos_run_and_write_only_to_the_temporary_directory(tmp_path):
    assert len(DEMOS) == 5, DEMOS
    cwd, tmp = tmp_path / "cwd", tmp_path / "tmp"
    cwd.mkdir()
    tmp.mkdir()
    env = {**os.environ, "PYTHONPATH": str(SRC), "TMPDIR": str(tmp)}
    before = _tree()
    for demo in DEMOS:
        proc = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (demo.name, proc.stderr)
    assert _tree() == before
    assert list(cwd.iterdir()) == []
    assert any(tmp.iterdir())  # 05_files_and_cli.py writes its files here
