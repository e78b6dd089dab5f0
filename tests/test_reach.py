"""Every function defined in ksflow is reached by a command, or kept for a
stated reason.

The five commands run in-process at tiny sizes under `sys.settrace`:
`simulate` on one config per kind of initial data, `verify-lifted`
over all suites, `probe`, a short `compare-blowup` and `plot`.  A function
(dunder methods aside) that none of them calls must be in KEEP, which maps
its name to the reason it stays; a KEEP entry that a command does reach, or
that names no function, is stale.

The commands run in a child process (this file run as a script) whose trace
starts before `import ksflow`, so helpers that only run while a module is
imported count as reached whatever the tests imported before.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

KEEP = {}

# the [initial] section of one simulate config per kind of initial field
CONFIGS = (
    "kind = gaussian\nsigma = 1.0\nmass = 1.0",
    "kind = gaussian\nsigma = 1.0\namplitude = 2.0",
    "kind = zero",
)


def defined_functions() -> dict:
    """'module.qualname' -> code object of every function and method defined
    in ksflow, dunder methods aside."""
    import ksflow

    out = {}
    for info in pkgutil.walk_packages(ksflow.__path__, "ksflow."):
        module = importlib.import_module(info.name)
        prefix = info.name.removeprefix("ksflow.")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                out[f"{prefix}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("__") and attr.endswith("__"):
                        continue
                    # plain, static and class methods, properties, cached properties
                    fn = next((f for f in (getattr(member, key, None) for key in
                                           ("__func__", "fget", "func")) if f), member)
                    if inspect.isfunction(fn):
                        out[f"{prefix}.{name}.{attr}"] = fn.__code__
    return out


def run_commands(tmp: Path) -> None:
    from ksflow.cli import main
    from ksflow.config import DEFAULT_MONITORS

    argvs = []
    for i, initial in enumerate(CONFIGS):
        cfg = tmp / f"c{i}.cfg"
        cfg.write_text(
            f"[run]\nscenario = c{i}\n"
            f"[solver]\ngamma = -2.5\nn_cells = 32\nr_max = 8.0\ndt = 1e-4\n"
            "t_end = 0.003\noutput_stride = 10\nscheme = semi-implicit-fv\n"
            "positivity = assert\n"
            f"[initial]\n{initial}\n"
            f"[monitors]\nenabled = {', '.join(DEFAULT_MONITORS)}\n")
        argvs.append(["simulate", "--config", str(cfg), "--out", str(tmp / "sim"),
                      "--quiet"])
    argvs += [
        ["verify-lifted", "--samples", "4096", "--out", str(tmp / "lifted"), "--quiet"],
        ["probe", "--members", "4", "--out", str(tmp / "probe"), "--quiet"],
        ["compare-blowup", "--horizon", "0.002", "--dt", "1e-3", "--dt", "5e-4",
         "--out", str(tmp / "blowup"), "--quiet"],
        ["plot", "--csv", str(tmp / "sim" / "c0-diagnostics.csv"),
         "--columns", "fisher,entropy", "--out-file", str(tmp / "plot.svg")],
    ]
    for argv in argvs:
        assert main(argv) in (0, 1), argv


def trace_commands(tmp: Path) -> dict:
    """Run the commands under a trace that also sees the ksflow imports."""
    called = set()

    def trace(frame, event, arg):
        called.add(frame.f_code)  # "call" events only: no local tracing

    start = time.monotonic()
    sys.settrace(trace)
    try:
        run_commands(tmp)
    finally:
        sys.settrace(None)
    seconds = time.monotonic() - start
    functions = defined_functions()
    return {
        "seconds": seconds,
        "unreached": sorted(n for n, code in functions.items()
                            if code not in called and n not in KEEP),
        "kept_but_reached": sorted(n for n in KEEP
                                   if n in functions and functions[n] in called),
        "kept_but_missing": sorted(set(KEEP) - set(functions)),
    }


@pytest.fixture(scope="module")
def reach(tmp_path_factory):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, __file__, str(tmp_path_factory.mktemp("reach"))],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_function_is_reached_or_kept(reach):
    assert not reach["unreached"], reach["unreached"]


def test_keep_list_is_exact(reach):
    assert not reach["kept_but_reached"], reach["kept_but_reached"]
    assert not reach["kept_but_missing"], reach["kept_but_missing"]


def test_commands_run_quickly(reach):
    assert reach["seconds"] <= 10.0


def benchmark_tracer(monkeypatch):
    """perfbench/tracer.py loaded as a module, leaving no bytecode beside it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def resolve(span):
    """The object a tracer span name ('module.qualname' without the leading
    'ksflow.') names, looked up in the defining namespaces; None if absent."""
    parts = span.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module("ksflow." + ".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            obj = vars(obj).get(attr) if hasattr(obj, "__dict__") else None
        return obj
    return None


def test_every_name_the_benchmark_times_exists(monkeypatch):
    # the tracer silently reports a metric as absent when its name is gone
    tracer = benchmark_tracer(monkeypatch)
    names = {*tracer.OWN_TIMED, *tracer.INCL_TIMED, *tracer.OBSERVERS,
             *(tracer.span_name(module, f"{cls}.{method}")
               for module, cls, method in tracer.METHODS)}
    missing = sorted(n for n in names if not inspect.isfunction(resolve(n)))
    assert not missing, missing
    for module, attr in tracer.FOREIGN:
        assert callable(getattr(importlib.import_module(module), attr, None)), attr

    # the tracer wraps the public module-level functions
    functions = defined_functions()
    for prefix in tracer.OWN_TIMED_PREFIXES:
        assert any(name.startswith(prefix) and "." not in name[len(prefix):]
                   and not name[len(prefix):].startswith("_") for name in functions), prefix

    from ksflow.lifted.suites import SUITES
    from ksflow.solver import StepReport

    assert set(tracer.SUITE_KEYS) <= set(SUITES)
    # the fields _observe_step reads off each step's report
    assert {"halvings", "clips"} <= {f.name for f in dataclasses.fields(StepReport)}


if __name__ == "__main__":
    print(json.dumps(trace_commands(Path(sys.argv[1]))))
