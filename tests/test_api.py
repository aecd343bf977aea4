"""The package root exports the README quick start and nothing more, and
importing it leaves numpy unloaded."""

import os
import pathlib
import re
import subprocess
import sys

import pdtsp_kit

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_root_exports_are_the_readme_quick_start():
    block = re.search(r"from pdtsp_kit import \(([^)]*)\)", README.read_text())
    quick_start = {name.strip() for name in block.group(1).split(",") if name.strip()}
    assert sorted(pdtsp_kit.__all__) == sorted(quick_start | {"FormatError", "__version__"})
    for name in pdtsp_kit.__all__:
        assert getattr(pdtsp_kit, name) is not None


def test_import_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, pdtsp_kit; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
