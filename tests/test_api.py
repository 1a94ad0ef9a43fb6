import ast
import importlib
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import mrc_wpt
from mrc_wpt.circuit import ScenarioError
from mrc_wpt.distributed import ProtocolConfig, run_trials
from mrc_wpt.sampling import random_scenario
from mrc_wpt.verify import run_verification

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


SOURCES = sorted(pathlib.Path(mrc_wpt.__file__).parent.glob("*.py"))


def test_no_source_line_over_100_characters():
    for path in SOURCES:
        lines = path.read_text().splitlines()
        long = [k for k, line in enumerate(lines, 1) if len(line) > 100]
        assert long == [], f"{path.name}: lines {long} are longer than 100 characters"


def test_one_fork_and_one_runner():
    # The package forks only in distributed._forked, and cli reaches into
    # distributed's private names only through the batch runner, _trials.
    forks, private = [], []
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute):
                    if node.attr == "fork" and getattr(node.value, "id", None) == "os":
                        forks.append((path.stem, getattr(top, "name", None)))
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                    if node.module == "os" and "fork" in names:
                        forks.append((path.stem, getattr(top, "name", None)))
                    if path.stem == "cli" and node.module in ("distributed", "mrc_wpt.distributed"):
                        private += [name for name in names if name.startswith("_")]
                    elif path.stem == "cli":
                        assert "distributed" not in names, "cli imports the distributed module"
    assert forks == [("distributed", "_forked")]
    assert private == ["_trials"]


def test_one_generated_engine():
    # The package compiles and runs generated code only in distributed._engine,
    # so the step engine it generates is the only engine path.
    calls = []
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in ("exec", "compile")):
                    calls.append((path.stem, getattr(top, "name", None), node.func.id))
    assert sorted(calls) == [("distributed", "_engine", "compile"),
                             ("distributed", "_engine", "exec")]


# Each entry point's count or seed check: (call with the value, name, least).
COUNTS = {
    "ProtocolConfig k_max": (lambda s, v: ProtocolConfig(k_max=v), "k_max", 1),
    "ProtocolConfig seed": (lambda s, v: ProtocolConfig(seed=v), "seed", 0),
    "run_trials trials": (lambda s, v: run_trials(s, ProtocolConfig(k_max=10), v), "trials", 1),
    "run_verification trials": (lambda s, v: run_verification(s, trials=v), "trials", 1),
    "run_verification seed": (lambda s, v: run_verification(s, trials=1, seed=v), "seed", 0),
    "random_scenario n_receivers": (
        lambda s, v: random_scenario(np.random.default_rng(0), v), "n_receivers", 1),
}


@pytest.mark.parametrize("value", [True, 2.5, None], ids=["True", "2.5", "below"])
@pytest.mark.parametrize("entry", list(COUNTS))
def test_counts_reject_bool_float_and_below(fig3, entry, value):
    call, name, least = COUNTS[entry]
    value = least - 1 if value is None else value
    message = f"{name} must be an integer >= {least} (got {value})"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        call(fig3, value)
