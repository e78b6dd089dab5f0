"""The checkpoint reader, a test oracle for `ksflow.grids.write_checkpoint`.

No command restarts from a checkpoint, so the reader lives with the tests
that read checkpoints back: the round-trip and malformed-header tests of
`test_grids.py`, and the restart and abort tests of `test_solver.py`.
"""

import numpy as np

from ksflow.grids import (
    _CHECKPOINT_MAGIC,
    _CHECKPOINT_VERSION,
    FieldError,
    RadialField,
    RadialGrid,
)


def read_checkpoint(path):
    """Read a checkpoint written by write_checkpoint.

    Returns (field, gamma, time).  A malformed header (bad magic or version,
    a kind other than radial, a line without a value, a non-numeric or
    missing required value) or a payload whose length disagrees with it
    raises FieldError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    end = raw.find(b"end-header\n")
    if end < 0:
        raise FieldError(f"{path}: not a ksflow checkpoint (missing end-header)")
    try:
        head = raw[:end].decode("ascii").splitlines()
    except UnicodeDecodeError:
        raise FieldError(f"{path}: checkpoint header is not ASCII") from None
    blob = raw[end + len(b"end-header\n"):]
    magic = head[0].split() if head else []
    if len(magic) != 2 or magic[0] != _CHECKPOINT_MAGIC:
        raise FieldError(f"{path}: bad magic line {head[0] if head else ''!r}")
    if magic[1] != str(_CHECKPOINT_VERSION):
        raise FieldError(f"{path}: unsupported checkpoint version {magic[1]!r}")
    meta = {}
    for line in head[1:]:
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise FieldError(f"{path}: header line {line!r} has no value")
        meta[parts[0]] = parts[1]
    if meta.get("byte_order") != "little" or meta.get("dtype") != "float64":
        raise FieldError(f"{path}: unsupported binary encoding")
    if meta.get("kind") != "radial":
        raise FieldError(f"{path}: unknown field kind {meta.get('kind')!r}")
    missing = [k for k in ("gamma", "time", "count", "n_cells", "r_max") if k not in meta]
    if missing:
        raise FieldError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    try:
        n_cells, count = int(meta["n_cells"]), int(meta["count"])
        r_max, gamma, time = (float(meta[k]) for k in ("r_max", "gamma", "time"))
        signed = bool(int(meta.get("signed", "0")))
    except ValueError as exc:
        raise FieldError(f"{path}: malformed checkpoint header value ({exc})") from None
    grid = RadialGrid(n_cells, r_max)
    if count != n_cells or len(blob) != 8 * count:
        raise FieldError(
            f"{path}: payload of {len(blob)} bytes, count {count}; "
            f"the grid needs {n_cells} float64 values"
        )
    values = np.frombuffer(blob, dtype="<f8").astype(float)
    return RadialField(grid, values, signed=signed), gamma, time
