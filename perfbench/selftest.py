"""Fast self-test of the benchmark at tiny inputs (about half a minute).

    python3 perfbench/selftest.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json is
emitted with its unit for every workload, that a workload whose processes
all crash still reports (timings absent, every crash a failed check), that a
patch site which no longer exists is reported as an absent metric rather than
a crash, that a reference to a layer function the tracer cannot reach is
counted, and that the benchmark refuses to run without the ksflow sources.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import tracer


def expected(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def check_emitted(workload, result, wanted):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{workload}: metrics {got} != {wanted}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{workload}: {name} is {m['value']!r}"
    assert result["attempted"] >= 1


def check_crash_reported():
    config = run.TINY_CONFIG
    run.TINY_CONFIG = config.replace("gamma = {gamma}", "gamma = not-a-number")
    try:
        result = run.run_workload("flow-reference", seed=0, seconds=0, trace=False, tiny=True)
    finally:
        run.TINY_CONFIG = config
    metrics = result["metrics"]
    assert set(metrics) == set(dict(run.END_TO_END)), metrics
    for name in ("wall_s", "setup_s", "peak_rss_mib"):
        assert metrics[name]["value"] is None and metrics[name]["absent"], metrics[name]
    assert metrics["pass_ratio"]["value"] == 0.0, metrics["pass_ratio"]
    assert not result["correct"] and result["failed"] == result["attempted"] > 1, result


def check_patch_sites():
    sys.path.insert(0, run.SRC)
    import ksflow.kernels

    del ksflow.kernels.kernel_matrix
    hidden = (ksflow.kernels.radial_convolve,)  # a binding the tracer does not rebind
    tr = tracer.Tracer()
    tr.install()
    layers = tr.layer_metrics(1.0)
    missing = {n for n, (value, _) in layers.items() if value is None}
    assert missing == {"kernels.build_s", "kernels.builds", "kernels.cache_hit_ratio",
                       "kernels.matrix_mib"}, missing
    assert layers["trace.unpatched_refs"][0] == len(hidden), layers["trace.unpatched_refs"]


def check_refuses_bare_checkout():
    bare = os.path.join(run.RUNS, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "flow-reference",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    end_to_end = expected("end_to_end")
    per_layer = expected("per_layer")
    assert end_to_end == dict(run.END_TO_END), end_to_end
    for name in run.WORKLOADS:
        for trace, wanted in ((False, end_to_end), (True, per_layer)):
            result = run.run_workload(name, seed=0, seconds=0, trace=trace, tiny=True)
            check_emitted(name, result, wanted)
            print(f"ok {name} trace {int(trace)}: {len(wanted)} metrics")
    check_crash_reported()
    print("ok crashed runs reported, timings absent")
    check_refuses_bare_checkout()
    print("ok refuses to run without sources")
    check_patch_sites()
    print("ok missing patch site reported absent, hidden reference counted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
