"""LAPACK `dgtsv` called directly, for the tridiagonal diffusion solve.

numpy links a LAPACK for `numpy.linalg`; its extension module
`numpy.linalg._umath_linalg` makes that library's symbols reachable through
`ctypes`.  The routine is resolved once, at import, under the names numpy
builds give it: numpy's OpenBLAS wheels prefix every LAPACK symbol with the
prefix in `_SYMBOLS`, and an ILP64 build suffixes it with `64_` and takes
64-bit integers.  When no name resolves, `UNRESOLVED` says why and
`solver.Stencil` raises `SolverError`; the import itself never fails.

`solve_banded(band, rhs)` takes the system in the (1, 1) banded layout
(upper diagonal in band[0, 1:], diagonal in band[1], lower diagonal in
band[2, :-1]) and solves it in place, partial pivoting included, exactly as
a banded (1, 1) solve that dispatches to `dgtsv` does.
"""

from __future__ import annotations

import ctypes

import numpy as np
from numpy.linalg import _umath_linalg

#: (symbol, LAPACK integer type), in the order tried
_SYMBOLS = (
    ("scipy_dgtsv_64_", ctypes.c_int64),
    ("dgtsv_64_", ctypes.c_int64),
    ("scipy_dgtsv_", ctypes.c_int32),
    ("dgtsv_", ctypes.c_int32),
)


def _resolve():
    """(routine, integer type, None) for the first symbol found, else
    (None, None, the reason)."""
    try:
        library = ctypes.CDLL(_umath_linalg.__file__)
    except OSError as exc:
        return None, None, f"cannot open numpy's LAPACK ({exc})"
    for symbol, integer in _SYMBOLS:
        try:
            routine = getattr(library, symbol)
        except AttributeError:
            continue
        pointer = ctypes.POINTER(integer)
        # dgtsv(N, NRHS, DL, D, DU, B, LDB, INFO)
        routine.argtypes = (pointer, pointer, *(ctypes.c_void_p,) * 4, pointer, pointer)
        routine.restype = None
        return routine, integer, None
    return None, None, (f"numpy's LAPACK exports none of "
                        f"{', '.join(s for s, _ in _SYMBOLS)}")


_DGTSV, _INT, UNRESOLVED = _resolve()


#: NRHS: every solve has one right-hand side
_NRHS = None if _INT is None else _INT(1)


def _address(array: np.ndarray, name: str) -> int:
    """Address of the first element of a C-contiguous, writeable float64 array."""
    if not (isinstance(array, np.ndarray) and array.dtype == np.float64):
        raise TypeError(f"{name} must be a float64 ndarray")
    try:
        # a writeable, contiguous buffer export: cheaper than array.ctypes.data,
        # and refused for a read-only or non-contiguous array
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except TypeError:
        raise ValueError(f"{name} must be C-contiguous and writeable") from None


def solve_banded(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system in `band` ((3, n), the layout above) for
    `rhs` (length n) with one `dgtsv` call, in place: both are overwritten,
    and `rhs`, now the solution, is returned.

    Both must be C-contiguous, writeable float64 arrays (TypeError or
    ValueError, before the call).  A zero pivot raises
    `numpy.linalg.LinAlgError`.  No finite check: NaN and infinity pass
    through to the solution.
    """
    if not (isinstance(rhs, np.ndarray) and rhs.ndim == 1):
        raise ValueError("rhs must be a one-dimensional array")
    n = rhs.shape[0]
    if not (isinstance(band, np.ndarray) and band.shape == (3, n)):
        raise ValueError(f"band must have shape (3, {n}) for a rhs of length {n}")
    base = _address(band, "band")
    solution = _address(rhs, "rhs")
    size, info = _INT(n), _INT(0)
    # DL = band[2, :-1], D = band[1], DU = band[0, 1:]; LDB = N
    _DGTSV(size, _NRHS, base + 16 * n, base + 8 * n, base + 8, solution, size, info)
    if info.value:
        raise np.linalg.LinAlgError(f"singular matrix (zero pivot in row {info.value})")
    return rhs
