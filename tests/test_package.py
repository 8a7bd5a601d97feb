"""The package root: every public name and submodule is imported on
first access (PEP 562), and resolves to what its submodule defines."""

import os
import pathlib
import subprocess
import sys

import pytest

import lattice_returns as lr


def test_every_public_name_is_its_submodules_object():
    for name in lr.__all__:
        obj = getattr(lr, name)
        assert obj.__module__.startswith("lattice_returns."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_dir_lists_the_public_names_and_submodules():
    listed = dir(lr)
    assert set(lr.__all__) <= set(listed)
    assert {"walks", "constants", "__version__"} <= set(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        lr.no_such_name
    assert not hasattr(lr, "modulr")


def test_fresh_root_resolves_submodules_and_star_import():
    # A fresh interpreter, so nothing has imported the submodules yet.
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    probe = (
        "import sys, lattice_returns as lr\n"
        "assert 'lattice_returns.walks' not in sys.modules\n"
        "assert lr.walks is sys.modules['lattice_returns.walks']\n"
        "assert lr.constants.build_bundle is lr.build_bundle\n"
        "ns = {}\n"
        "exec('from lattice_returns import *', ns)\n"
        "assert all(ns[name] is getattr(lr, name) for name in lr.__all__)\n"
        "print(len(lr.__all__))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "%d\n" % len(lr.__all__)
