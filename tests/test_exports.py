"""Every exported name resolves, and the package exports what README lists."""

import importlib
import re
from pathlib import Path

import pytest

import driftbandits

MODULES = ["driftbandits", *(
    f"driftbandits.{path.stem}"
    for path in sorted(Path(driftbandits.__file__).parent.glob("*.py"))
    if path.stem != "__init__"
)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_are_the_documented_ones():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = next(ln for ln in readme.splitlines() if ln.startswith("Top-level exports:"))
    documented = re.findall(r"`(\w+)`", line)
    assert len(documented) == 9
    assert sorted(driftbandits.__all__) == sorted(documented)
