"""The package root re-exports every module's public names, and only those.

Each module's `__all__` is the one list of its public names; `hrx`
builds its own `__all__` from them, so a name added to a module reaches
the root without a second edit.
"""
from __future__ import annotations

import pytest

import hrx

MODULES = ("gauss", "norming", "hr_core", "oracle", "triangular", "cli")


@pytest.mark.parametrize("module", MODULES)
def test_module_names_are_root_names(module):
    for name in getattr(hrx, module).__all__:
        assert getattr(hrx, name) is getattr(getattr(hrx, module), name), name


def test_root_names_are_unique_and_public():
    assert len(hrx.__all__) == len(set(hrx.__all__))
    assert "std_normal_quantile" not in hrx.__all__
    assert "main" not in hrx.__all__
    expected = {name for module in MODULES
                for name in getattr(hrx, module).__all__}
    assert set(hrx.__all__) == expected | {"__version__"}
