import os
import subprocess
import sys
from pathlib import Path

import pytest

import trafficnmf


def test_every_public_name_is_its_submodules_object():
    for name in trafficnmf.__all__:
        value = getattr(trafficnmf, name)
        assert value.__module__.startswith("trafficnmf."), name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from trafficnmf import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(trafficnmf.__all__)
    assert all(namespace[name] is getattr(trafficnmf, name) for name in namespace)
    assert set(trafficnmf.__all__) <= set(dir(trafficnmf))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        getattr(trafficnmf, "no_such_name")
    assert not hasattr(trafficnmf, "no_such_name")


def test_importing_the_package_loads_no_submodule():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(trafficnmf.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if "PYTHONPATH" in env else []))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, trafficnmf; "
                               "print(sorted(m for m in sys.modules if m.startswith('trafficnmf')))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "['trafficnmf']\n"
