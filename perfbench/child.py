"""One cold-start benchmark process: set up, call the entry point once, report.

Run by run.py as `python3 child.py <json spec>`.  The spec names the entry
(`simulate` with a config file, or a `ksflow` command line), the output
directory, the result file, the parent's monotonic clock reading just before
spawning, and whether to stop at the entry call (`setup_only`) or to trace.

setup_s runs from that spawn reading to the entry call: interpreter start,
`import ksflow` (numpy, scipy), config or argument parsing.  wall_s runs from
the entry call to its return.
"""

import json
import os
import sys
import time


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(spec: dict) -> int:
    src = spec["src"]
    sys.path.insert(0, src)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    import numpy
    import scipy
    import ksflow

    here = os.path.dirname(os.path.abspath(ksflow.__file__))
    if os.path.dirname(here) != os.path.abspath(src):
        raise SystemExit(f"imported ksflow from {here}, not from {src}")
    if tracer is not None:
        tracer.install()

    out_dir = spec["out"]
    if spec["kind"] == "simulate":
        from ksflow.config import load_config
        from ksflow.harness import simulate

        cfg = load_config(spec["config"])

        def entry():
            ok, _ = simulate(cfg, out_dir)
            return 0 if ok else 1
    else:
        from ksflow import cli

        args = cli.build_parser().parse_args(
            [spec["kind"], *spec["argv"], "--out", out_dir, "--quiet"])

        def entry():
            return args.fn(args)

    setup_s = time.monotonic() - spec["t_spawn"]
    result = {"setup_s": setup_s}
    if spec["setup_only"]:
        result["versions"] = {"python": sys.version.split()[0],
                              "numpy": numpy.__version__, "scipy": scipy.__version__}
        result["blas_threads"] = blas_threads()
        rc = 0
    else:
        start = time.perf_counter()
        rc = entry()
        result["wall_s"] = time.perf_counter() - start
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(result["wall_s"])
            result["patched_sites"] = tracer.sites
            with open(spec["spans"], "w", encoding="utf-8") as fh:
                json.dump(tracer.dump_spans(), fh)
    result["rc"] = rc
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
