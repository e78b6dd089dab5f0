"""Every function and every line defined in ksflow is reached by a command,
or kept for a stated reason.

The commands run in-process at tiny sizes under `sys.settrace`: `simulate`
on one config per kind of initial data, `verify-lifted` over all suites,
`probe`, short `compare-blowup` runs and `plot`, plus bad-input argvs that
exit 2.  A function (dunder methods aside) that none of them calls must be
in KEEP, which maps its name to the reason it stays; a KEEP entry that a
command does reach, or that names no function, is stale.

The same trace records line events in ksflow frames.  An executable
statement outside a `raise` statement (docstrings, `def`, `class` and
`import` statements and the bodies of dunder methods aside) that no command
runs must be in KEEP_LINES, keyed by its enclosing 'module.qualname' and the
stripped text of its first line, with the reason it stays; an entry that
names no unreached statement is stale.

The commands run in a child process (this file run as a script) whose trace
starts before `import ksflow`, so helpers and module-level statements that
only run while a module is imported count as reached whatever the tests
imported before.  Run by hand, `python tests/test_reach.py DIR` prints each
unreached statement as `path:line: source  # qualname` before the JSON.
"""

import ast
import contextlib
import dataclasses
import importlib
import importlib.util
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

KEEP = {}

#: ('module.qualname', first line of the statement) -> why no command runs it
KEEP_LINES = {
    ("__init__.__getattr__",
     'return getattr(importlib.import_module(f"{__name__}.{module}"), name)'):
        "the lazy public names (ksflow.run, ksflow.simulate, ...) for library "
        "use; the commands import the submodules themselves",
    ("__init__.__dir__", "return sorted({*globals(), *_LAZY})"):
        "dir(ksflow) lists the lazy names; no command lists the package",
    ("_lapack._resolve", "return None, None, f\"cannot open numpy's LAPACK ({exc})\""):
        "a numpy whose linalg extension ctypes cannot open",
    ("_lapack._resolve", "continue"):
        "a numpy build that does not export the first dgtsv symbol tried",
    ("_lapack._resolve", "return None, None, (f\"numpy's LAPACK exports none of \""):
        "a numpy build that exports no dgtsv symbol; Stencil then raises",
    ("cli", "sys.exit(main())"):
        "`python -m ksflow.cli`; the commands call main in-process",
    **dict.fromkeys([
        ("lifted.frames.vf_divergence", "return np.zeros(n)"),
        ("lifted.frames.vf_divergence", "return np.full(n, 6.0)"),
    ], "the divergence of every field vf_eval defines, public beside vf_eval "
       "and vf_jacobian; the frames suite reads only div n"),
    **dict.fromkeys([
        ("lifted.functionals._run_chunks", "try:"),
        ("lifted.functionals._run_chunks", 'os.write(write_end, b"F" + np.array(['),
        ("lifted.functionals._run_chunks", "error = pickle.dumps(exc)"),
        ("lifted.functionals._run_chunks", "pickle.loads(error)"),
        ("lifted.functionals._run_chunks",
         'error = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))'),
        ("lifted.functionals._run_chunks", 'os.write(write_end, b"E" + error)'),
        ("lifted.functionals._run_chunks", "os._exit(0)"),
        ("lifted.functionals._run_share", "os._exit(1)"),
    ], "runs in the forked worker, outside the parent's trace"),
    ("lifted.functionals._run_chunks", "os.kill(pid, signal.SIGKILL)"):
        "the caller raised while a worker ran; tests/test_lifted_functionals.py "
        "plants that",
    **dict.fromkeys([
        ("solver._apply_positivity",
         "if lowest < -_ROUNDOFF_FLOOR * max(floor_scale, 1e-300):"),
        ("solver._apply_positivity", "return np.maximum(values, 0.0, out=values)"),
    ], "a solve that leaves a negative value: floored at roundoff depth, "
       "an abort below; no reach run makes one"),
}

#: the [solver] section of every simulate config, before its overrides
SOLVER = {"gamma": -2.5, "n_cells": 32, "r_max": 8.0, "dt": 1e-4, "t_end": 0.003,
          "output_stride": 10, "scheme": "semi-implicit-fv", "positivity": "assert"}

#: (scenario, [solver] overrides, [initial] section, exit codes) of each
#: simulate config: one per kind of initial field, then the regimes whose
#: branches only they reach, then data that exit 2
CONFIGS = (
    ("mass", {}, "kind = gaussian\nsigma = 1.0\nmass = 1.0", (0, 1)),
    ("amplitude", {}, "kind = gaussian\nsigma = 1.0\namplitude = 2.0", (0, 1)),
    ("zero", {}, "kind = zero", (0, 1)),
    # the heat flow, where a[f] is the mass, and the Coulomb case, h[f] = 4 pi f
    ("heat", {"gamma": -2.0}, "kind = gaussian\nsigma = 1.0\nmass = 1.0", (0, 1)),
    ("coulomb", {"gamma": -3.0}, "kind = gaussian\nsigma = 1.0\nmass = 1.0", (0, 1)),
    # the bound on max h[f] fails the guard between rows, and the guard halves dt
    ("tall", {"n_cells": 128}, "kind = gaussian\nsigma = 1.0\namplitude = 4e4", (0, 1)),
    # f = 1 on every cell: Fisher information 0
    ("flat", {}, "kind = gaussian\nsigma = 1e100\namplitude = 1.0", (0, 1)),
    # the reaction guard needs more than 16 halvings at the first step
    ("abort", {"gamma": -3.0}, "kind = gaussian\nsigma = 1.0\namplitude = 1e8", (2,)),
    ("negative", {}, "kind = gaussian\nsigma = -1.0\nmass = 1.0", (2,)),
    ("vanishing", {}, "kind = gaussian\nsigma = 0.001\nmass = 1.0", (2,)),
)

#: (name, text, exit code, exit code with --log-y) of each CSV the plot
#: commands read besides a simulate output
PLOT_CSVS = (
    ("empty", "", 0, 0),
    ("ascii", "t,y\n0,\xe9\n", 2, 2),
    ("quote", 't,y\n0,"1"2\n', 2, 2),
    ("width", "t,y\n0,1,2\n", 2, 2),
    ("word", "t,y\n0,abc\n", 2, 2),
    ("inf", "t,y\n0,inf\n", 2, 2),
    ("span", "t,y\n0,-1e308\n1,1e308\n", 2, 0),
    # one row: each axis is one value (1e308 + 1 is 1e308), and log y ticks
    # pass 10^308
    ("point", "t,y\n0,1e308\n", 0, 0),
    # two adjacent floats: the tick step is below their spacing; no y > 0
    ("ulp", "t,y\n100000000000000000000,0\n100000000000000016384,-1\n", 0, 0),
    # a span of one subnormal: no tick step
    ("subnormal", "t,y\n0,0\n1,5e-324\n", 0, 0),
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
    """Run every reach command with its output captured; each must exit with
    one of its codes."""
    from ksflow.cli import main
    from ksflow.config import DEFAULT_MONITORS

    ok, bad = (0, 1), (2,)
    sim, csvs = tmp / "sim", tmp / "csv"
    csvs.mkdir()

    def config(name, run, overrides, initial):
        """The path of a simulate config written as `name`.cfg."""
        path = tmp / f"{name}.cfg"
        solver = "\n".join(f"{k} = {v}" for k, v in {**SOLVER, **overrides}.items())
        path.write_text(
            f"# the reach config {name}\n\n[run]\n{run}\n"
            f"[solver]\n{solver}\n[initial]\n{initial}\n"
            f"[monitors]\nenabled = {', '.join(DEFAULT_MONITORS)}\n")
        return str(path)

    commands = [(["simulate", "--config", str(tmp / "missing.cfg")], bad)]
    for scenario, overrides, initial, codes in CONFIGS:
        commands.append((["simulate", "--config",
                          config(scenario, f"scenario = {scenario}", overrides, initial),
                          "--out", str(sim), "--quiet"], codes))
    gaussian = CONFIGS[0][2]
    commands += [
        # the output directory from [run] out, without --out
        (["simulate", "--config",
          config("outkey", f"scenario = outkey\nout = {tmp / 'outkey'}", {}, gaussian),
          "--quiet"], ok),
        # a scenario that is no file-name stem
        (["simulate", "--config", config("escape", "scenario = ../escape", {}, gaussian),
          "--out", str(sim), "--quiet"], bad),
    ]
    commands += [
        (["verify-lifted", "--samples", "4096", "--out", str(tmp / "lifted"), "--quiet"], ok),
        # above the dissipation window: the sign and bound rows are skipped
        (["verify-lifted", "--suite", "dissipation", "--gamma", "0.9", "--samples", "4096",
          "--quiet"], ok),
        # two chunks, merged
        (["verify-lifted", "--suite", "maxwell", "--samples", "131073", "--quiet"], ok),
        (["verify-lifted", "--suite", "marginal", "--gamma", "0", "--quiet"], bad),
        (["verify-lifted", "--suite", "nope", "--quiet"], bad),
        (["verify-lifted", "--samples", "0", "--quiet"], bad),
        (["probe", "--members", "4", "--out", str(tmp / "probe")], ok),
        (["probe", "--lemma", "A9", "--quiet"], bad),
        (["probe", "--members", "0", "--quiet"], bad),
        (["compare-blowup", "--horizon", "0.002", "--dt", "1e-3", "--dt", "5e-4",
          "--out", str(tmp / "blowup"), "--quiet"], ok),
        # the default dt pair; the twin blows up at both
        (["compare-blowup", "--amplitude", "1000", "--horizon", "0.002", "--quiet"], ok),
        # zero data: the detector never fires, so the verdict fails
        (["compare-blowup", "--amplitude", "0", "--horizon", "0.002", "--quiet"], (1,)),
        (["compare-blowup", "--sigma", "1e300", "--quiet"], bad),
        (["compare-blowup", "--horizon", "0.0015", "--dt", "1e-3", "--quiet"], bad),
        (["plot", "--csv", str(sim / "mass-diagnostics.csv"), "--columns", "fisher,entropy",
          "--out-file", str(tmp / "plot.svg")], ok),
        (["plot", "--csv", str(sim / "mass-diagnostics.csv"), "--columns", "nope",
          "--out-file", str(tmp / "plot.svg")], bad),
        (["plot", "--csv", str(sim / "mass-diagnostics.csv"), "--columns", "fisher",
          "--x", "nope", "--out-file", str(tmp / "plot.svg")], bad),
        (["plot", "--csv", str(sim / "zero-diagnostics.csv"), "--columns", "mass",
          "--log-y", "--out-file", str(tmp / "plot.svg")], ok),
    ]
    for name, text, code, log_code in PLOT_CSVS:
        path = csvs / f"{name}.csv"
        path.write_bytes(text.encode("latin-1"))
        argv = ["plot", "--csv", str(path), "--columns", "y", "--out-file",
                str(csvs / f"{name}.svg")]
        commands += [(argv, (code,)), ([*argv, "--log-y"], (log_code,))]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv, codes in commands:
            assert main(argv) in codes, argv


def traced(run, root: Path) -> tuple:
    """Run `run()` under a trace; return the code objects it called and
    {file: line numbers} of the line events in files under root."""
    called = set()
    lines = {}
    prefix = os.path.join(root, "")

    def trace(frame, event, arg):
        code = frame.f_code
        called.add(code)
        if code.co_filename.startswith(prefix):
            hits = lines.setdefault(code.co_filename, set())

            def local(frame, event, arg):
                if event == "line":
                    hits.add(frame.f_lineno)
                return local
            return local
        return None

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    return called, lines


def _code_lines(code) -> set:
    """Line numbers that hold bytecode, in code and the code nested in it."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if inspect.iscode(const):
            out |= _code_lines(const)
    return out


def _child_statements(node) -> list:
    """The statements directly nested in node (through handlers and cases)."""
    out = []
    for child in ast.iter_child_nodes(node):
        out += [child] if isinstance(child, ast.stmt) else _child_statements(child)
    return out


def statements(path: Path, module: str) -> list:
    """(qualname, first line, own lines, first-line text) of every executable
    statement of the file: its own lines are its span less its nested
    statements.  Left out: `raise`, docstrings, `def`, `class`, `import` and
    the bodies of dunder methods."""
    source = path.read_text()
    text = source.splitlines()
    executable = _code_lines(compile(source, str(path), "exec"))
    out = []

    def visit(body, qualname, in_class):
        for i, node in enumerate(body):
            nested = _child_statements(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (in_class and node.name.startswith("__") and node.name.endswith("__")):
                    visit(node.body, f"{qualname}.{node.name}", isinstance(node, ast.ClassDef))
                continue
            docstring = (i == 0 and isinstance(node, ast.Expr)
                         and isinstance(node.value, ast.Constant)
                         and isinstance(node.value.value, str))
            if not (docstring or isinstance(node, (ast.Raise, ast.Import, ast.ImportFrom))):
                own = set(range(node.lineno, node.end_lineno + 1))
                for child in nested:
                    own -= set(range(child.lineno, child.end_lineno + 1))
                if own & executable:
                    out.append((qualname, node.lineno, own, text[node.lineno - 1].strip()))
            visit(nested, qualname, False)

    visit(ast.parse(source).body, module, False)
    return out


def line_report(files: dict, hits: dict, keep_lines: dict) -> dict:
    """files: {module: path}.  The statements no line event reached and
    keep_lines does not name ('path:line: source  # qualname'), and the
    keep_lines keys that name no unreached statement."""
    unreached = []
    kept = set()
    for module, path in sorted(files.items()):
        ran = hits.get(str(path), set())
        for qualname, line, own, text in statements(path, module):
            if own & ran:
                continue
            if (qualname, text) in keep_lines:
                kept.add((qualname, text))
            else:
                unreached.append(f"{os.path.relpath(path)}:{line}: {text}  # {qualname}")
    return {"unreached_lines": unreached,
            "stale_lines": [f"{q}: {t}" for q, t in sorted(set(keep_lines) - kept)]}


def source_files() -> dict:
    """{module: path} of every ksflow source file, modules named as in
    defined_functions ('lifted' for lifted/__init__.py) and the package's own
    __init__.py as '__init__'."""
    root = Path(importlib.util.find_spec("ksflow").origin).parent
    out = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        out[".".join(parts[:-1] if parts[1:] and parts[-1] == "__init__" else parts)] = path
    return out


def trace_commands(tmp: Path) -> dict:
    """Run the commands under a trace that also sees the ksflow imports."""
    files = source_files()
    start = time.monotonic()
    called, hits = traced(lambda: run_commands(tmp), files["__init__"].parent)
    seconds = time.monotonic() - start
    functions = defined_functions()
    return {
        "seconds": seconds,
        "unreached": sorted(n for n, code in functions.items()
                            if code not in called and n not in KEEP),
        "kept_but_reached": sorted(n for n in KEEP
                                   if n in functions and functions[n] in called),
        "kept_but_missing": sorted(set(KEEP) - set(functions)),
        **line_report(files, hits, KEEP_LINES),
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


def test_every_line_is_reached_or_kept(reach):
    assert not reach["unreached_lines"], "\n".join(reach["unreached_lines"])


def test_keep_lines_is_exact(reach):
    assert not reach["stale_lines"], reach["stale_lines"]


def test_commands_run_quickly(reach):
    assert reach["seconds"] <= 10.0


PLANT = '''\
def f(x):
    """A docstring is no statement to reach."""
    if x is None:
        raise ValueError("x")
    if x:
        return {
            "x": x,
        }
    return 0
'''


def test_line_report_fails_on_a_planted_line_and_a_stale_entry(tmp_path):
    path = tmp_path / "plant.py"
    path.write_text(PLANT)
    namespace = {}
    exec(compile(PLANT, str(path), "exec"), namespace)
    _, hits = traced(lambda: namespace["f"](1), tmp_path)
    files = {"plant": path}
    # the raise is never a finding; `return 0` is the one unreached line
    assert line_report(files, hits, {}) == {
        "unreached_lines": [f"{os.path.relpath(path)}:9: return 0  # plant.f"],
        "stale_lines": []}
    assert line_report(files, hits, {("plant.f", "return 0"): "planted"}) == {
        "unreached_lines": [], "stale_lines": []}
    # an entry naming a line that runs, or no line at all, is stale
    stale = {("plant.f", "return 0"): "planted", ("plant.f", "return {"): "runs",
             ("plant.g", "return 0"): "no such function"}
    assert line_report(files, hits, stale)["stale_lines"] == [
        "plant.f: return {", "plant.g: return 0"]


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
    result = trace_commands(Path(sys.argv[1]))
    for entry in result["unreached_lines"]:
        print(entry)
    print(json.dumps(result))
