import importlib
import re
from pathlib import Path

import pytest

MODULES = ["cssnmf", "cssnmf.cli", "cssnmf.io", "cssnmf.linalg", "cssnmf.model",
           "cssnmf.sweep", "cssnmf.synthetic", "cssnmf.text"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A stale __all__ entry breaks `from cssnmf import *` and the benchmark
    # tracer, which wraps every exported function of each module.
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_readme_python_examples_run():
    # Each fenced python block of README.md runs on its own, as a reader
    # would paste it.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert blocks
    for source in blocks:
        exec(compile(source, "README.md", "exec"), {"__name__": "readme"})
