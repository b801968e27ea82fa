import dataclasses
import importlib
import inspect
import pkgutil

import willems

KNOBS = {"tol", "rtol", "threshold", "max_iter"}


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
