import importlib
import pkgutil

import pytest

import mrc_wpt

MODULES = sorted(
    f"mrc_wpt.{info.name}" for info in pkgutil.iter_modules(mrc_wpt.__path__)
)


@pytest.mark.parametrize("name", ["mrc_wpt", *MODULES])
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names missing attributes"
