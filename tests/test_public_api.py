import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import willems

KNOBS = {"tol", "rtol", "threshold", "max_iter"}
LIBRARY = (
    "hankel",
    "lti",
    "multiagent",
    "numerics",
    "parameterize",
    "predictive",
    "qp",
    "subspace",
)


def test_package_exports_each_library_module_all_once():
    # the package's export list is the modules' own lists, in module-name
    # order, with no name declared twice; the command line stays out
    modules = [importlib.import_module(f"willems.{name}") for name in LIBRARY]
    expected = [name for mod in modules for name in mod.__all__]
    assert willems.__all__ == expected
    assert len(set(expected)) == len(expected)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(willems, name) is getattr(mod, name), name
    names = {info.name for info in pkgutil.iter_modules(willems.__path__)}
    assert names == set(LIBRARY) | {"cli"}


def test_no_public_function_or_dataclass_takes_a_tolerance_knob():
    # every rank decision uses one cutoff and every residual test one
    # tolerance, so no public entry point lets a caller move them
    found = []
    for info in pkgutil.iter_modules(willems.__path__):
        mod = importlib.import_module(f"willems.{info.name}")
        for name in mod.__all__:
            obj = getattr(mod, name)
            if dataclasses.is_dataclass(obj):
                params = {f.name for f in dataclasses.fields(obj)}
            elif inspect.isfunction(obj):
                params = set(inspect.signature(obj).parameters)
            else:
                continue
            found += [f"{info.name}.{name}: {p}" for p in sorted(params & KNOBS)]
        found += [
            f"{info.name}.{gone}"
            for gone in ("RankTolerance", "DEFAULT_TOL")
            if hasattr(mod, gone)
        ]
    assert not found


def test_runtime_needs_numpy_alone():
    # a fresh interpreter imports the package and every module, the command
    # line included, without loading a package that is not a declared
    # dependency; scipy, hypothesis and pytest-benchmark may be installed
    # beside it, so nothing may come to need them
    script = (
        "import importlib, pkgutil, sys, willems\n"
        "for info in pkgutil.iter_modules(willems.__path__):\n"
        "    importlib.import_module('willems.' + info.name)\n"
        "print(sorted(m for m in sys.modules if m.startswith('willems.')))\n"
        "print(sorted({'scipy', 'hypothesis', 'pytest_benchmark'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(willems.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    loaded, foreign = proc.stdout.splitlines()
    assert loaded == str(sorted(f"willems.{name}" for name in (*LIBRARY, "cli")))
    assert foreign == "[]"
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(os.path.dirname(src), "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in deps] == ["numpy"]
