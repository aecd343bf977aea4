"""The package root exports the README quick start and nothing more."""

import pathlib
import re

import pdtsp_kit

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_root_exports_are_the_readme_quick_start():
    block = re.search(r"from pdtsp_kit import \(([^)]*)\)", README.read_text())
    quick_start = {name.strip() for name in block.group(1).split(",") if name.strip()}
    assert sorted(pdtsp_kit.__all__) == sorted(quick_start | {"FormatError", "__version__"})
    for name in pdtsp_kit.__all__:
        assert getattr(pdtsp_kit, name) is not None
