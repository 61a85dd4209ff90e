import importlib

import pytest

MODULES = ["cssnmf", "cssnmf.cli", "cssnmf.io", "cssnmf.linalg", "cssnmf.model",
           "cssnmf.sweep", "cssnmf.synthetic", "cssnmf.text"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A stale __all__ entry breaks `from cssnmf import *` and the benchmark
    # tracer, which wraps every exported function of each module.
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
