"""The package namespace: names resolve on first use, submodules load on demand."""

import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import liemaxwell

#: Submodules that reading the catalog must not load.
UNUSED_BY_CATALOG = ("solver", "families", "forms", "kahler", "maxwell", "metric_geometry", "cli")


def test_catalog_alone_loads_no_other_submodule():
    src = str(Path(liemaxwell.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import json, sys\n"
            "import liemaxwell\n"
            "from liemaxwell import lie_algebra\n"
            "lie_algebra.catalog()\n"
            "print(json.dumps(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    loaded = set(json.loads(proc.stdout))
    assert "liemaxwell.lie_algebra" in loaded
    assert loaded.isdisjoint(f"liemaxwell.{name}" for name in UNUSED_BY_CATALOG)


#: Second routes to a result that has one route: the one-seed layer of
#: ``ResidualContext`` (``refine`` reads a seed's facts, ``candidates`` and
#: ``residual``) and its ``stack`` (the constructor builds a whole
#: program), ``classify_hermitian_type`` (the ``type`` of
#: ``hermitian_diagnostics``), ``Family.kahler_form`` (``omega_from_metric``
#: of the point's metric), ``SearchOutcome.to_json`` (``json.dumps`` of
#: ``to_dict``) and ``from_brackets`` (``LieAlgebra`` of the constants, or
#: ``instantiate`` of a catalog entry); and ``LieAlgebra.dim`` and
#: ``LieAlgebra.params``, which nothing in the package read.
REMOVED = {"liemaxwell": ["classify_hermitian_type", "from_brackets"],
           "liemaxwell.kahler": ["classify_hermitian_type"],
           "liemaxwell.lie_algebra": ["from_brackets"],
           "liemaxwell.lie_algebra:LieAlgebra": ["dim", "params"],
           "liemaxwell.forms": ["LEVI4", "_levi_civita_symbol"],
           "liemaxwell.families:Family": ["kahler_form"],
           "liemaxwell.solver:SearchOutcome": ["to_json"],
           "liemaxwell.solver:ResidualContext": ["_one", "algebra_params", "kernel",
                                                 "metric_names", "f_names", "names", "pack",
                                                 "candidate", "project_f", "stack"]}


def test_removed_names_stay_removed():
    for where, names in REMOVED.items():
        module, _, attr = where.partition(":")
        home = importlib.import_module(module)
        home = getattr(home, attr) if attr else home
        for name in names:
            assert not hasattr(home, name), (where, name)
    # A dataclass field with a default_factory is no class attribute: look
    # on an instance too.
    from liemaxwell.lie_algebra import entry_by_name, instantiate
    algebra = instantiate(entry_by_name("2A2"))
    for name in REMOVED["liemaxwell.lie_algebra:LieAlgebra"]:
        assert not hasattr(algebra, name), name
    assert "classify_hermitian_type" not in liemaxwell.__all__
    assert "from_brackets" not in liemaxwell.__all__


def test_every_exported_name_is_its_home_object():
    assert len(liemaxwell.__all__) == len(set(liemaxwell.__all__)) == 38
    for name in liemaxwell.__all__:
        home = importlib.import_module(f"liemaxwell.{liemaxwell._HOMES[name]}")
        value = getattr(liemaxwell, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
        assert name not in vars(liemaxwell), name  # resolved, not cached


def test_dir_and_unknown_names():
    assert set(liemaxwell.__all__) <= set(dir(liemaxwell))
    assert "__all__" in dir(liemaxwell)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(liemaxwell, "no_such_name")
    assert not hasattr(liemaxwell, "no_such_name")
    from liemaxwell import lie_algebra  # a submodule, not a re-exported name
    assert lie_algebra is sys.modules["liemaxwell.lie_algebra"]


def test_no_exported_callable_takes_a_tolerance():
    # Tolerances and iteration caps are constants of the method, not options.
    callables = []
    for name in liemaxwell.__all__:
        value = getattr(liemaxwell, name)
        callables.append((name, value))
        if isinstance(value, type):
            members = ((attr, getattr(value, attr)) for attr in vars(value))
            callables += [(f"{name}.{attr}", member) for attr, member in members
                          if callable(member) and not isinstance(member, type)]
    checked = 0
    for name, fn in callables:
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):  # no signature to read
            continue
        checked += 1
        assert not {"tol", "max_iter"} & set(params), name
    assert checked > len(liemaxwell.__all__)


def test_readme_quickstart_imports(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^```python\n(.*?)^```", readme, re.S | re.M).group(1)
    ns: dict = {}
    exec(block, ns)
    assert np.allclose(ns["curvature_summary"](ns["L"], ns["g"]).ric0,
                       np.diag([-0.25, -0.25, 0.5, 0.25]), atol=1e-12)
    assert ns["report"].classification == "NonEinsteinEM"
    assert callable(ns["classify_algebra"])
    assert ns["row"].agree
    assert "NonEinsteinEM" in capsys.readouterr().out
