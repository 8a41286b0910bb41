"""Package imports: the lazy table of public names, and what each entry point loads.

The footprint tests run fresh interpreters, since this process has
imported every module through the other tests.
"""

import os
import subprocess
import sys
from importlib import import_module

import pytest

import prtoolkit
import prtoolkit.equations
import prtoolkit.polyexp

_SRC = os.path.dirname(os.path.dirname(prtoolkit.__file__))

_LIST_MODULES = "\nimport sys\nprint(' '.join(sorted(sys.modules)))"


def _modules(code):
    """Every module a fresh interpreter has loaded after running `code`."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=_SRC + (os.pathsep + path if path else ""))
    p = subprocess.run([sys.executable, "-c", code + _LIST_MODULES],
                       capture_output=True, text=True, env=env, timeout=60)
    assert p.returncode == 0, p.stderr
    return set(p.stdout.splitlines()[-1].split())


def _loaded(code):
    """The prtoolkit submodules a fresh interpreter has loaded after running `code`."""
    return {m[10:] for m in _modules(code) if m.startswith("prtoolkit.")}


def test_polyexp_entry_loads_only_what_it_uses():
    assert _loaded("import prtoolkit.equations, prtoolkit.polyexp") == {
        "algebra", "equations", "polyexp"}


def test_linear_decide_loads_no_other_decision_module():
    loaded = _loaded('from prtoolkit import cli\ncli.main(["decide", "--expr", "x + y = z"])')
    assert "rado" in loaded
    assert not loaded & {"polyexp", "ramsey", "sunit", "diophantine"}, loaded


def test_search_loads_ramsey_but_not_polyexp():
    loaded = _loaded('from prtoolkit import cli\n'
                     'cli.main(["search", "--expr", "x + y = z", "--range", "5", "--colors", "2"])')
    assert "ramsey" in loaded
    assert "polyexp" not in loaded, loaded


@pytest.mark.parametrize("code", [
    "import prtoolkit.equations, prtoolkit.polyexp",
    'from prtoolkit import cli\ncli.main(["decide", "--expr", "x + y = z"])',
    'from prtoolkit import cli\ncli.main(["decide", "--expr", "2^x + 3^x = 5^x"])',
    'from prtoolkit import cli\n'
    'cli.main(["search", "--expr", "x + y = z", "--range", "5", "--colors", "2"])',
], ids=["polyexp-import", "linear-decide", "polyexp-decide", "search"])
def test_entry_points_load_neither_dataclasses_nor_inspect(code):
    # dataclasses imports inspect, ast, dis and tokenize, and execs every class's methods
    assert not _modules(code) & {"dataclasses", "inspect"}


def test_bare_package_import_loads_no_submodule():
    assert _loaded("import prtoolkit") == set()


# --- the lazy table ------------------------------------------------------------


def test_table_covers_all_exactly():
    assert set(prtoolkit._SUBMODULE) == set(prtoolkit.__all__)
    assert len(prtoolkit.__all__) == len(set(prtoolkit.__all__))


@pytest.mark.parametrize("name", prtoolkit.__all__)
def test_every_name_resolves_to_its_defining_module(name):
    module = import_module("prtoolkit." + prtoolkit._SUBMODULE[name])
    obj = getattr(prtoolkit, name)
    assert obj is getattr(module, name)
    # constants have no __module__; classes and functions name their home
    assert getattr(obj, "__module__", module.__name__) == module.__name__


def test_star_import_binds_every_name():
    namespace = {}
    exec("from prtoolkit import *", namespace)
    for name in prtoolkit.__all__:
        assert namespace[name] is getattr(prtoolkit, name), name


def test_dir_lists_every_name():
    assert set(prtoolkit.__all__) <= set(dir(prtoolkit))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        prtoolkit.no_such_name


def test_submodules_are_attributes_of_the_package():
    assert prtoolkit.ramsey is import_module("prtoolkit.ramsey")


def test_equation_classes_are_shared_with_polyexp():
    p = prtoolkit.polyexp
    assert p.PolyExpEquation is prtoolkit.equations.PolyExpEquation
    assert p.PolyExpTerm is prtoolkit.equations.PolyExpTerm
    assert p.polyexp_eval is prtoolkit.equations.polyexp_eval
    assert prtoolkit.ramsey.BudgetExceeded is prtoolkit.algebra.BudgetExceeded
