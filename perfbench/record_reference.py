"""Record the key output values of every workload into reference.json.

    python3 perfbench/record_reference.py

Runs each workload once at full size in a fresh process, the seeded ones at
`checks.REFERENCE_SEED`.  Re-record only when a change is known to move the
outputs (and say so in CHANGES.md); the checks in checks.py compare later
runs against these values.
"""

import json
import os
import shutil
import sys

import checks
import run


def main() -> int:
    out = {}
    work_dir = os.path.join(run.RUNS, "record")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    for i, name in enumerate(run.WORKLOADS):
        wl = run.WORKLOADS[name]
        spec = run.entry_spec(name, checks.REFERENCE_SEED, False, work_dir)
        rec = run.run_child(spec, os.path.join(work_dir, f"c{i}"), False, False)
        if rec["rc"] != 0:
            print(f"{name} failed: {rec.get('log_tail')}", file=sys.stderr)
            return 1
        summary = checks.summarize(wl["kind"], os.path.join(rec["dir"], "out"))
        out[name] = {"seed": checks.REFERENCE_SEED if wl.get("seeded") else None,
                     "values": summary["values"]}
        print(f"{name}: {summary['rows']} rows, wall {rec['wall_s']:.2f} s")
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
