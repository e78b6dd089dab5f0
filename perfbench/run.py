"""The ksflow benchmark: four workloads, end-to-end metrics, traced per-layer run.

    python3 perfbench/run.py --workload flow-reference --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Every timed run is its own process (child.py), started cold, one at a time
(closed loop, a single client).  The kernel-matrix cache is process-global,
so in-process repeats would hide the builds every CLI call pays.

--trace 0 runs `SETUP_RUNS` set-up-only processes, then entry-point processes
until --seconds are used (at least one), and reports medians:
  wall_s        entry call to return (kernel builds, monitors, writes included)
  setup_s       spawn to entry call (interpreter, imports, config parse)
  peak_rss_mib  maximum resident set of each entry-point process (os.wait4)
  pass_ratio    1 - fail_ratio; fail_ratio = failed checks / checks attempted
--trace 1 runs pairs of an untraced and a traced process and reports the
per-layer metrics of tracer.py plus trace.overhead_s (traced - untraced wall).

Every process's outputs are checked (checks.py): exit status, row counts,
verdicts, byte-identical outputs across the runs of one source tree, and key
values against reference.json at checks.REFERENCE_SEED.  A process that
crashes is a failed check; a workload none of whose processes finished still
reports, with its timings absent (null).  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".perfbench_runs")

sys.path.insert(0, HERE)
import checks  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

SETUP_RUNS = 5
CHILD_TIMEOUT_S = 120.0  # a hung process is killed, so one run ends within minutes
LIFTED_SAMPLES = 1 << 18   # two 2^17-sample chunks per estimator
PROBE_MEMBERS = 64

TINY_CONFIG = """[run]
scenario = {scenario}
[solver]
gamma = {gamma}
n_cells = 64
r_max = 12.0
dt = 1e-4
t_end = 0.002
output_stride = 10
"""

# Why each workload exists is recorded in NOTES.md.
WORKLOADS = {
    "flow-reference": {
        "kind": "simulate", "config": "configs/reference.cfg", "rows": 101,
        "tiny": {"gamma": -3.0, "rows": 3},
    },
    "flow-wide": {
        "kind": "simulate", "config": "perfbench/flow-wide.cfg", "rows": 21,
        "tiny": {"gamma": -2.5, "rows": 3},
    },
    "lifted-mc": {
        "kind": "verify-lifted", "rows": 12, "seeded": True,
        "argv": lambda seed, tiny: [
            "--suite", "dissipation", "--gamma", "-2.5",
            "--samples", str(2048 if tiny else LIFTED_SAMPLES), "--seed", str(seed)],
        "tiny": {"rows": 12},
    },
    "probe-sweep": {
        "kind": "probe", "rows": 5 * 5 * PROBE_MEMBERS, "seeded": True,
        "argv": lambda seed, tiny: (
            ["--lemma", "A5", "--members", "2"] if tiny
            else ["--members", str(PROBE_MEMBERS)]) + ["--seed", str(seed)],
        "tiny": {"rows": 5 * 2},
    },
}

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"),
              ("pass_ratio", "1"))


# ---------------------------------------------------------------------------
# machine and source metadata
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for base in ("src", "configs", "perfbench"):
        top = os.path.join(ROOT, base)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".cfg", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def git_revision():
    # the ceiling keeps git from reading directories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_caches() -> list:
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = []
    try:
        entries = sorted(e for e in os.listdir(base) if e.startswith("index"))
    except OSError:
        return out
    for entry in entries:
        info = {}
        for key in ("level", "type", "size"):
            try:
                with open(os.path.join(base, entry, key), encoding="ascii") as fh:
                    info[key] = fh.read().strip()
            except OSError:
                info[key] = None
        out.append(info)
    return out


def machine_meta() -> dict:
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_caches": cpu_caches(),
        "computed": ["kernels.matrix_mib (from the returned arrays' nbytes)"],
    }


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def entry_spec(name: str, seed: int, tiny: bool, run_dir: str) -> dict:
    wl = WORKLOADS[name]
    spec = {"kind": wl["kind"], "src": SRC}
    if wl["kind"] == "simulate":
        if tiny:
            path = os.path.join(run_dir, f"{name}-tiny.cfg")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(TINY_CONFIG.format(scenario=name, gamma=wl["tiny"]["gamma"]))
            spec["config"] = path
        else:
            spec["config"] = os.path.join(ROOT, wl["config"])
    else:
        spec["argv"] = wl["argv"](seed, tiny)
    return spec


def run_child(spec: dict, child_dir: str, setup_only: bool, trace: bool) -> dict:
    """Spawn one cold process and reap it with its own resource usage."""
    os.makedirs(child_dir)
    spec = dict(spec, out=os.path.join(child_dir, "out"),
                result=os.path.join(child_dir, "result.json"),
                spans=os.path.join(child_dir, "spans.json"),
                setup_only=setup_only, trace=trace)
    log_path = os.path.join(child_dir, "log.txt")
    with open(log_path, "w", encoding="utf-8") as log:
        spec["t_spawn"] = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"),
                                 json.dumps(spec)],
                                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        # a blocking wait: a polling parent would wake up on the cores the
        # child's BLAS threads run on
        timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    rec = {"rc": proc.returncode, "elapsed_s": time.monotonic() - spec["t_spawn"],
           "peak_rss_mib": usage.ru_maxrss / 1024.0, "dir": child_dir,
           "setup_only": setup_only, "trace": trace}
    try:
        with open(spec["result"], encoding="utf-8") as fh:
            rec.update(json.load(fh), rc=proc.returncode)
    except (OSError, ValueError):
        rec["result_missing"] = True
    if rec["rc"] != 0 or rec.get("result_missing"):
        with open(log_path, encoding="utf-8", errors="replace") as fh:
            rec["log_tail"] = fh.read()[-2000:]
    return rec


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class Checker:
    """Counts checks; remembers output digests per source tree and input."""

    def __init__(self, name, seed, tiny, source_sha):
        self.wl = dict(WORKLOADS[name], name=name)
        if tiny:
            self.wl["rows"] = self.wl["tiny"]["rows"]
        self.attempted = 0
        self.failed = []
        input_id = seed if self.wl.get("seeded") else "-"
        self.key = f"{source_sha}:{name}:{'tiny' if tiny else 'full'}:{input_id}"
        self.reference = None
        if not tiny:
            ref = checks.load_reference().get(name)
            if ref is not None and (not self.wl.get("seeded") or seed == checks.REFERENCE_SEED):
                self.reference = ref["values"]
        self.digests_path = os.path.join(RUNS, "digests.json")

    def record(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed.append(f"{label}: {detail}".rstrip(": "))

    def child(self, rec, index):
        label = f"run {index}"
        if rec["rc"] != 0 or rec.get("result_missing"):
            self.record(f"{label} exit", False,
                        f"status {rec['rc']}; {rec.get('log_tail', '')[-300:]}")
            return
        self.record(f"{label} exit", True)
        if rec["setup_only"]:
            return
        try:
            summary = checks.summarize(self.wl["kind"], os.path.join(rec["dir"], "out"))
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            self.record(f"{label} outputs readable", False, repr(exc))
            return
        rec["digest"] = summary["digest"]
        for name, ok, detail in checks.check_output(self.wl, summary, self.reference):
            self.record(f"{label} {name}", ok, detail)

    def digests(self, recs):
        seen = [r["digest"] for r in recs if "digest" in r]
        if not seen:
            return
        self.record("outputs identical across runs", len(set(seen)) == 1, str(set(seen)))
        os.makedirs(RUNS, exist_ok=True)
        try:
            with open(self.digests_path, encoding="utf-8") as fh:
                store = json.load(fh)
        except (OSError, ValueError):
            store = {}
        earlier = store.setdefault(self.key, seen[0])
        self.record("outputs identical to earlier runs of this source",
                    earlier == seen[0], f"{seen[0]} vs {earlier}")
        tmp = self.digests_path + f".{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.digests_path)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    meta = machine_meta()
    run_dir = os.path.join(RUNS, f"{name}-s{seed}-t{int(trace)}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    spec = entry_spec(name, seed, tiny, run_dir)
    checker = Checker(name, seed, tiny, meta["source_sha256"])
    recs = []

    def child(setup_only, traced):
        rec = run_child(spec, os.path.join(run_dir, f"c{len(recs)}"), setup_only, traced)
        checker.child(rec, len(recs))
        recs.append(rec)
        if "digest" in rec:  # outputs are checked; keep only the record
            shutil.rmtree(os.path.join(rec["dir"], "out"), ignore_errors=True)
        return rec

    for _ in range(1 if trace else SETUP_RUNS):
        child(setup_only=True, traced=False)
    start = time.monotonic()
    while True:
        batch = [child(False, False)]
        if trace:
            batch.append(child(False, True))
        if any(r["rc"] != 0 for r in batch):
            break
        spent = time.monotonic() - start
        if spent + sum(r["elapsed_s"] for r in batch) > seconds:
            break
    checker.digests(recs)

    # a workload whose runs all crashed still reports: its timings are absent
    # and every crash is a failed check
    work = [r for r in recs if not r["setup_only"] and "wall_s" in r]
    plain = [r for r in work if not r["trace"]]
    traced = [r for r in work if r["trace"]]
    if trace:
        values, units = {}, {}
        for metric, unit, _ in PER_LAYER:
            layer = [r["layers"][metric][0] for r in traced]
            values[metric] = None if not layer or None in layer else _median(layer)
            units[metric] = unit
        walls = [_median([r["wall_s"] for r in group]) for group in (traced, plain)]
        values["trace.overhead_s"] = None if None in walls else walls[0] - walls[1]
        units["trace.overhead_s"] = "s"
        spans_src = os.path.join(traced[-1]["dir"], "spans.json") if traced else None
    else:
        values = {
            "wall_s": _median([r["wall_s"] for r in plain]),
            "setup_s": _median([r["setup_s"] for r in recs if "setup_s" in r]),
            "peak_rss_mib": _median([r["peak_rss_mib"] for r in plain]),
            "pass_ratio": 1.0 - len(checker.failed) / checker.attempted,
        }
        units = dict(END_TO_END)
        spans_src = None
    metrics = {}
    for metric, value in values.items():
        metrics[metric] = {"value": value, "unit": units[metric]}
        if value is None:
            metrics[metric]["absent"] = True

    setup_rec = next((r for r in recs if r.get("versions")), {})
    meta.update(setup_rec.get("versions", {}), blas_threads=setup_rec.get("blas_threads"),
                workload=name, seed=seed, seconds=seconds, trace=int(trace),
                size="tiny" if tiny else "full", runs=len(work),
                setup_runs=sum(r["setup_only"] for r in recs))
    result = {
        "correct": not checker.failed,
        "attempted": checker.attempted,
        "failed": len(checker.failed),
        "metrics": metrics,
        "meta": meta,
        "failures": checker.failed,
        "children": [{k: v for k, v in r.items() if k not in ("layers", "patched_sites")}
                     for r in recs],
    }
    os.makedirs(os.path.join(RUNS, "results"), exist_ok=True)
    stem = os.path.join(RUNS, "results", f"{name}-seed{seed}-trace{int(trace)}")
    if spans_src is not None:
        shutil.copyfile(spans_src, stem + "-spans.json")
        result["spans_file"] = os.path.relpath(stem + "-spans.json", ROOT)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    result["result_file"] = os.path.relpath(stem + ".json", ROOT)
    shutil.rmtree(run_dir, ignore_errors=True)
    return result


def print_result(name: str, result: dict):
    meta = result["meta"]
    print(f"# {name} seed {meta['seed']}: {meta['runs']} timed runs, "
          f"{meta['setup_runs']} set-up runs, trace {meta['trace']}")
    for metric, m in result["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name}.{metric} = {value} {m['unit']}")
    print(f"{name}.fail_ratio = {result['failed'] / result['attempted']:.6g} 1 "
          f"({result['failed']} of {result['attempted']} checks failed)")
    for failure in result["failures"][:10]:
        print(f"# FAILED {failure}")
    print(f"# details in {result['result_file']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ksflow", "__init__.py")):
        print(f"perfbench: no ksflow sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_result(name, result)
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        total["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
