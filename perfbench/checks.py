"""Output checks for one benchmark run of a workload.

`summarize` reads the files a run wrote and extracts what the checks need:
a digest of every output byte, the row counts, the verdicts and the key
values.  `check_output` turns a summary into named pass/fail checks, against
the values recorded in `reference.json` at `REFERENCE_SEED`.

Tolerances (relative unless stated), chosen so that a change which reorders
floating-point sums passes and a cheaper problem fails:

* flows, final mass / entropy / Fisher: 1e-7.  A coarser grid or a larger dt
  moves them by 1e-5 or more; an FFT or reordered matvec by ~1e-10.
* lifted-mc, every row's lhs and rhs: 1e-9 of the value plus 1e-6 of the
  recorded standard error plus 1e-10 absolute.  Fewer samples move an
  estimate by about one standard error; reordered contractions by ~1e-13.
* probe-sweep, per lemma max ratio and sums of lhs and rhs: 1e-6.  Replacing
  the symmetric mu = -2 limit (eps = 1e-3) by the exact kernel moves A3 by
  about 7e-7; a grid of 1792 instead of 2048 cells moves A3 by 2e-6 and A5
  by 7e-6.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# the seed of the seeded workloads' reference values; other seeds check verdicts only
REFERENCE_SEED = 0

FLOW_RTOL = 1e-7
LIFTED_RTOL = 1e-9
LIFTED_SE_TOL = 1e-6
LIFTED_ATOL = 1e-10
PROBE_RTOL = 1e-6


def digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def summarize(kind: str, out_dir: str) -> dict:
    """Key facts of one run's outputs; raises OSError/ValueError/KeyError on
    missing or malformed files."""
    files = sorted(os.listdir(out_dir))
    out = {"digest": digest(out_dir), "files": files}
    if kind == "simulate":
        csv_name = next(f for f in files if f.endswith("-diagnostics.csv"))
        scenario = csv_name[: -len("-diagnostics.csv")]
        rows = _read_csv(os.path.join(out_dir, csv_name))
        with open(os.path.join(out_dir, f"{scenario}-report.txt"), encoding="ascii") as fh:
            report = fh.read().split("## verdicts", 1)[1].split("## files", 1)[0]
        flags = [ln.split("=", 1)[1].split("#", 1)[0].strip()
                 for ln in report.splitlines() if "=" in ln]
        out.update(
            rows=len(rows),
            verdicts_ok=bool(flags) and all(f in ("pass", "skip") for f in flags),
            has_checkpoint=f"{scenario}.ckpt" in files,
            values={k: float(rows[-1][k]) for k in ("mass", "entropy", "fisher")},
        )
    elif kind == "verify-lifted":
        # identities may contain commas and the writer does not quote, so
        # the fixed columns are taken from both ends of each line
        with open(os.path.join(out_dir, "lifted.csv"), encoding="ascii") as fh:
            lines = fh.read().splitlines()[1:]
        rows = []
        for line in lines:
            cells = line.split(",")
            rows.append([",".join(cells[1:-4]), float(cells[-4]), float(cells[-3]),
                         float(cells[-2]), cells[-1]])
        out.update(
            rows=len(rows),
            verdicts_ok=all(r[4] in ("pass", "skip") for r in rows),
            values=rows,
        )
    elif kind == "probe":
        rows = _read_csv(os.path.join(out_dir, "probes.csv"))
        lemmas = {}
        for r in rows:
            agg = lemmas.setdefault(r["lemma"], {"rows": 0, "max_ratio": 0.0,
                                                 "lhs_sum": 0.0, "rhs_sum": 0.0})
            agg["rows"] += 1
            agg["max_ratio"] = max(agg["max_ratio"], float(r["ratio"]))
            agg["lhs_sum"] += float(r["lhs"])
            agg["rhs_sum"] += float(r["rhs"])
        out.update(
            rows=len(rows),
            verdicts_ok=all(math.isfinite(a["max_ratio"]) for a in lemmas.values()),
            values=lemmas,
        )
    else:
        raise ValueError(f"unknown workload kind {kind!r}")
    return out


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _close(got, ref, rtol, atol=0.0):
    return abs(got - ref) <= rtol * abs(ref) + atol


def compare_values(kind: str, got, ref) -> list:
    """Named checks of key values against a recorded reference."""
    checks = []
    if kind == "simulate":
        for key, value in ref.items():
            checks.append((f"value {key}", _close(got[key], value, FLOW_RTOL),
                           f"{got[key]!r} vs {value!r}"))
    elif kind == "verify-lifted":
        same_rows = [g[0] for g in got] == [r[0] for r in ref]
        checks.append(("identities as recorded", same_rows, ""))
        if same_rows:
            for g, r in zip(got, ref):
                atol = LIFTED_SE_TOL * r[3] + LIFTED_ATOL
                ok = (_close(g[1], r[1], LIFTED_RTOL, atol)
                      and _close(g[2], r[2], LIFTED_RTOL, atol) and g[4] == r[4])
                checks.append((f"value {r[0]}", ok, f"{g[1:]} vs {r[1:]}"))
    elif kind == "probe":
        checks.append(("lemmas as recorded", sorted(got) == sorted(ref), ""))
        for lemma, r in ref.items():
            g = got.get(lemma)
            ok = (g is not None and g["rows"] == r["rows"]
                  and all(_close(g[k], r[k], PROBE_RTOL)
                          for k in ("max_ratio", "lhs_sum", "rhs_sum")))
            checks.append((f"value {lemma}", ok, f"{g} vs {r}"))
    return checks


def check_output(workload: dict, summary: dict, reference: dict | None) -> list:
    """(name, ok, detail) for one run whose process exited 0."""
    checks = [
        ("row count", summary["rows"] == workload["rows"],
         f"{summary['rows']} rows, expected {workload['rows']}"),
        ("verdicts pass", summary["verdicts_ok"], ""),
    ]
    if workload["kind"] == "simulate":
        checks.append(("checkpoint written", summary["has_checkpoint"], ""))
    if reference is not None:
        checks += compare_values(workload["kind"], summary["values"], reference)
    return checks
