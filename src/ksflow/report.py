"""Deterministic CSV and run-report emission.

Same inputs produce byte-identical files: floats use a fixed %.17g format,
rows keep caller order, line endings are LF, and no timestamps appear
anywhere.  CSV cells are quoted per RFC 4180 when they hold a comma, a double
quote or a line break (commutator identities such as `[B1,B0]=0` do), so
every row parses at the header's width; all other cells are written bare.
"""

from __future__ import annotations

import os


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _cell(value) -> str:
    text = fmt(value)
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, columns, rows):
    """rows: iterable of dicts keyed (at least) by `columns`, written one line
    at a time as they are iterated."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(_cell(c) for c in columns) + "\n")
        for row in rows:
            fh.write(",".join(_cell(row[c]) for c in columns) + "\n")


def verdict_block(verdicts) -> list:
    """key = value lines summarizing monitor verdicts.

    Each verdict is a dict with at least `monitor` and `passed` (and
    `skipped` where it may skip); its flag is `skip` when it skipped, else
    `pass` or `fail`.  Remaining numeric entries are echoed after the flag.
    """
    lines = []
    for v in verdicts:
        flag = "skip" if v.get("skipped") else ("pass" if v.get("passed") else "fail")
        detail = " ".join(
            f"{k}={fmt(val)}" for k, val in sorted(v.items())
            if k not in ("monitor", "passed", "skipped")
            and isinstance(val, (int, float, bool))
        )
        lines.append(f"{v['monitor']} = {flag}" + (f"  # {detail}" if detail else ""))
    return lines


def write_run_report(path, config_lines, verdicts, manifest):
    lines = ["# ksflow run report", "", "## config", ""]
    lines += config_lines
    lines += ["", "## verdicts", ""]
    lines += verdict_block(verdicts)
    lines += ["", "## files", ""]
    lines += [os.path.basename(str(p)) for p in manifest]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def all_passed(verdicts) -> bool:
    return all(v.get("passed", False) or v.get("skipped", False) for v in verdicts)
