import importlib
import pathlib
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


def test_no_source_line_over_100_characters():
    for path in sorted(pathlib.Path(mrc_wpt.__file__).parent.glob("*.py")):
        lines = path.read_text().splitlines()
        long = [k for k, line in enumerate(lines, 1) if len(line) > 100]
        assert long == [], f"{path.name}: lines {long} are longer than 100 characters"
