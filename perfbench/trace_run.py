"""Run one ``varentropy_lab`` CLI command in this process with a span
recorder wrapped around the public calls of every layer.

Usage::

    python3 perfbench/trace_run.py SPANS_JSON -- run CONFIG --out DIR

The wrappers live here, not in the package: each one replaces a public name
where its callers look it up (``varentropy_lab.cli.run_scenario``,
``varentropy_lab.scenarios.solve``, ...), plus the ``drift`` method of every
drift class. A wrapper records a span (name, layer, start, end, parent,
invocation id) and the work counts its arguments or result give. Spans stay
in memory and are written to SPANS_JSON when the command has returned. The
exit code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import pkgutil
import sys
import time

#: (layer, group, name). ``name`` is a module-level function or
#: ``Class.method`` defined somewhere in the package. ``grids`` and
#: ``ou_exact`` have no entry: their public calls take under 1 % of every
#: workload and are covered by their callers' self time.
TARGETS = (
    ("scenarios", "parse", "ScenarioConfig.from_json"),
    ("scenarios", "parse", "ScenarioConfig.from_dict"),
    ("scenarios", "parse", "SweepConfig.from_json"),
    ("scenarios", "run", "run_scenario"),
    ("scenarios", "sweep", "monotonicity_sweep"),
    ("scenarios", "write", "write_sweep_csv"),
    ("fokker_planck", "solve", "solve"),
    ("fokker_planck", "step", "step"),
    ("functionals", "report", "report"),
    ("functionals", "scalar", "relative_entropy"),
    ("functionals", "scalar", "varentropy"),
    ("functionals", "scalar", "varentropy_rate"),
    ("monte_carlo", "simulate", "simulate_ensemble"),
    ("monte_carlo", "backward_drift", "estimate_backward_drift"),
    ("monte_carlo", "backward_drift", "duality_residual"),
    ("monte_carlo", "backward_drift", "backward_drift_on_grid"),
    ("monte_carlo", "martingale", "martingale_diagnostic"),
    ("monte_carlo", "mc_functionals", "mc_functionals"),
)

#: Functions whose calls from their own module are layer calls too: the
#: sweep runs each member through ``run_scenario`` in the same module, and
#: those member spans are what ``scenarios.run_self_s`` and
#: ``scenarios.member_checks_failed`` measure. Every other target is wrapped
#: only where other modules look it up, so that e.g. the scalar functionals
#: called inside ``report`` are not counted as direct calls.
WRAP_IN_OWN_MODULE = {"run_scenario"}


def _nominal_node_steps(args, kwargs) -> int:
    """n x nominal steps of ``solve(p0, model, t_grid, cfg)``, counted the
    way ``solve`` splits each output interval into steps of at most dt."""
    bound = dict(zip(("p0", "model", "t_grid", "cfg"), args), **kwargs)
    times = [float(t) for t in bound["t_grid"]]
    dt = bound["cfg"].dt
    steps = sum(max(1, math.ceil((b - a) / dt - 1e-12)) for a, b in zip(times, times[1:]))
    return bound["p0"].grid.n * steps


def _path_steps(args, kwargs) -> int:
    """n_paths x Euler-Maruyama steps of ``simulate_ensemble``."""
    names = ("model", "init", "dt", "t_end", "n_paths")
    bound = dict(zip(names, args), **kwargs)
    return int(bound["n_paths"]) * int(round(bound["t_end"] / bound["dt"]))


def _counts(name, args, kwargs, result) -> dict:
    if name == "solve":
        return {"node_steps": _nominal_node_steps(args, kwargs)}
    if name == "report":
        return {"states": len(result)}
    if name == "simulate_ensemble":
        return {"path_steps": _path_steps(args, kwargs)}
    if name == "estimate_backward_drift":
        return {"bins_defined": int(result.defined.sum()), "bins": int(len(result.counts))}
    if name == "run_scenario":
        return {"checks_failed": sum(1 for c in result.checks if not c.passed)}
    return {}


class SpanRecorder:
    """In-memory span list; one invocation id per traced CLI call."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.invocation = 0
        self.fired: set[str] = set()

    def wrap(self, layer: str, group: str, name: str, fn):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(recorder.spans),
                "name": name,
                "layer": layer,
                "group": group,
                "parent": recorder.stack[-1] if recorder.stack else None,
                "invocation": recorder.invocation,
            }
            recorder.spans.append(span)
            recorder.fired.add(name)
            recorder.stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                recorder.stack.pop()
            span.update(_counts(name, args, kwargs, result))
            return result

        return wrapper


def _package_modules():
    import varentropy_lab

    for info in pkgutil.iter_modules(varentropy_lab.__path__, "varentropy_lab."):
        if info.name != "varentropy_lab.__main__":
            importlib.import_module(info.name)
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "varentropy_lab" or n.startswith("varentropy_lab."))]


def install(recorder: SpanRecorder) -> dict:
    """Wrap every target that exists; return {name: True/False installed}."""
    modules = _package_modules()
    installed = {}
    for layer, group, name in TARGETS:
        owner_name, _, attr = name.rpartition(".")
        found = False
        for mod in modules:
            if owner_name:
                owner = vars(mod).get(owner_name)
                if not isinstance(owner, type) or owner.__module__ != mod.__name__:
                    continue
                method = owner.__dict__.get(attr)
                if not isinstance(method, classmethod):
                    continue
                wrapped = recorder.wrap(layer, group, name, method.__func__)
                setattr(owner, attr, classmethod(wrapped))
                found = True
                break
            fn = vars(mod).get(attr)
            if callable(fn) and getattr(fn, "__module__", None) == mod.__name__:
                wrapped = recorder.wrap(layer, group, name, fn)
                for caller in modules:
                    if vars(caller).get(attr) is not fn:
                        continue
                    if caller is mod and attr not in WRAP_IN_OWN_MODULE:
                        continue
                    setattr(caller, attr, wrapped)
                found = True
                break
        installed[name] = found

    # the drift method of every drift class, wherever it is called from
    drift_classes = [
        obj for mod in modules for obj in vars(mod).values()
        if isinstance(obj, type) and obj.__module__ == mod.__name__
        and callable(obj.__dict__.get("drift"))
    ]
    for cls in dict.fromkeys(drift_classes):
        cls.drift = recorder.wrap("drifts", "drift", "drift", cls.__dict__["drift"])
    installed["drift"] = bool(drift_classes)
    return installed


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    recorder = SpanRecorder()
    installed = install(recorder)

    from varentropy_lab import cli

    main_fn = recorder.wrap("cli", "main", "main", cli.main)
    recorder.invocation = 1
    code = main_fn(cli_argv)
    from setup_probe import versions

    with open(spans_path, "w") as fh:
        json.dump({"versions": versions(), "installed": installed,
                   "fired": sorted(recorder.fired), "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
