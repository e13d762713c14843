"""Every exported name resolves, so a removal cannot leave a stale export."""

import inspect

import pytest

import peftlab
from peftlab import adapters, cli, grad, linalg, trainer

MODULES = (adapters, cli, grad, linalg, trainer)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_the_package_exports_only_names_its_modules_export():
    # Star imports read __all__, so a name the package re-exports must be
    # listed there in the module it comes from.
    exported = {name for module in MODULES for name in module.__all__}
    public = {name for name, obj in vars(peftlab).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert sorted(public - exported) == []
