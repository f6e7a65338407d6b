"""ctypes binding of the compiled blossom kernel in ``_blossom.c``.

``_blossom.c`` is a line-for-line C99 translation of ``_blossom_py``, so
both kernels return the same mates and duals, and both have the same
session shape: ``open_session`` copies a graph into C buffers once, each
``Session.solve`` solves it at new weights, and ``Session.close`` frees
the buffers.  The first import compiles it
with the system C compiler into a per-user cache; later imports only load
the cached library.  The cache file is keyed on a hash of the source, the
compiler command, the flags and the platform, and is written under a
temporary name and then renamed into place, so concurrent processes never
load a half-written library.

If the build or the load fails, ``UNAVAILABLE`` says why and
``planarcc.matching`` falls back to the pure-Python kernel.  Setting
``PLANARCC_NO_EXT`` skips the build altogether.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np

from ._blossom_py import KernelResult

SOURCE = Path(__file__).with_name("_blossom.c")
COMPILER = "cc"
CFLAGS = ("-O3", "-std=c99", "-shared", "-fPIC")

# Return codes of the entry points of _blossom.c.
_OK, _NOMEM, _INPUT, _BROKEN = 0, 1, 2, 3


def _check(rc: int, n: int) -> None:
    """Raise the error that return code ``rc`` of _blossom.c stands for."""
    if rc == _OK:
        return
    if rc == _INPUT:
        raise ValueError(
            "invalid graph: endpoint out of range, self-loop, "
            "or |weight| > 2**52"
        )
    if rc == _NOMEM:
        raise MemoryError(f"blossom kernel: out of memory for n={n}")
    if rc == _BROKEN:
        raise RuntimeError("blossom kernel: an internal invariant failed")
    raise RuntimeError(f"blossom kernel returned unknown code {rc}")


def _int64(*arrays) -> list[np.ndarray]:
    """``arrays`` as contiguous int64 arrays, 1-D and of equal length."""
    out = [np.ascontiguousarray(a, dtype=np.int64) for a in arrays]
    if any(a.shape != (len(out[0]),) for a in out):
        raise ValueError("eu, ev and ew must be 1-D and of equal length")
    return out


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/planarcc``, or ``~/.cache/planarcc``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "planarcc"


def _fallback_dir() -> Path:
    """Per-user directory in the system temp dir, for an unwritable cache."""
    return Path(tempfile.gettempdir()) / f"planarcc-{os.getuid()}"


def _writable(directory: Path) -> bool:
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError:
        return False
    return os.access(directory, os.W_OK)


def _library_name(source: Path, cc: str) -> str:
    """File name of the compiled library for this source, compiler and
    platform."""
    key = hashlib.sha256()
    for part in (
        source.read_bytes(),
        cc.encode(),
        " ".join(CFLAGS).encode(),
        f"{sys.platform}-{platform.machine()}".encode(),
    ):
        key.update(part)
        key.update(b"\0")
    return f"_blossom-{key.hexdigest()[:16]}.so"


def _compile(source: Path, cc: str, target: Path) -> None:
    import subprocess

    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *CFLAGS, "-o", tmp, str(source)], capture_output=True, text=True
        )
        if proc.returncode != 0:
            raise OSError(
                f"{cc} exited with status {proc.returncode}: {proc.stderr.strip()}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def build(
    cache: Path | None = None, cc: str = COMPILER, source: Path = SOURCE
) -> Path:
    """Path of the compiled kernel, compiling it first when no cached copy
    exists.  Without ``cache``, the user cache is used, or a per-user
    directory in the system temp dir when that cannot be written.

    Raises OSError when the cache cannot be written or the compiler fails.
    """
    name = _library_name(source, cc)
    if cache is None:
        cache = _cache_dir()
        if not (cache / name).is_file() and not _writable(cache):
            cache = _fallback_dir()
    target = Path(cache) / name
    if target.is_file():
        return target
    if not _writable(target.parent):
        raise PermissionError(f"cannot write the kernel cache {target.parent}")
    _compile(source, cc, target)
    return target


def _bind(fn, restype, *argtypes):
    fn.restype = restype
    fn.argtypes = list(argtypes)
    return fn


class Kernel:
    """The loaded library's entry points, called with int64 arrays."""

    def __init__(self, path: Path):
        self.path = Path(path)
        lib = ctypes.CDLL(str(self.path))
        i64, ptr, c_int = ctypes.c_int64, ctypes.c_void_p, ctypes.c_int
        self._solve = _bind(lib.blossom_solve, c_int, i64, i64, *[ptr] * 5)
        self._open = _bind(
            lib.blossom_session_open, c_int, i64, i64, ptr, ptr, ctypes.POINTER(ptr)
        )
        self._session_solve = _bind(lib.blossom_session_solve, c_int, ptr, ptr, ptr, ptr)
        self._close = _bind(lib.blossom_session_close, None, ptr)

    def solve(self, n, eu, ev, ew) -> KernelResult:
        """Cold solve; same contract as ``_blossom_py.solve_max_weight_matching``."""
        eu, ev, ew = _int64(eu, ev, ew)
        mate = np.empty(n, dtype=np.int64)
        duals = np.empty(n, dtype=np.int64)
        rc = self._solve(
            n, len(eu), eu.ctypes.data, ev.ctypes.data, ew.ctypes.data,
            mate.ctypes.data, duals.ctypes.data,
        )
        _check(rc, n)
        return KernelResult(mate, duals)


class Session:
    """One graph held in the compiled kernel's buffers: ``solve`` it at any
    weights, then ``close`` it to free them.  Same contract as
    ``_blossom_py.Session``.  A session that is garbage-collected open
    frees its buffers then."""

    def __init__(self, kernel: Kernel, n: int, eu, ev):
        eu, ev = _int64(eu, ev)
        handle = ctypes.c_void_p()
        _check(kernel._open(n, len(eu), eu.ctypes.data, ev.ctypes.data, ctypes.byref(handle)), n)
        self.n = n
        self.num_edges = len(eu)
        self._kernel = kernel
        self._handle: ctypes.c_void_p | None = handle
        self._free = weakref.finalize(self, kernel._close, handle)

    def solve(self, ew) -> KernelResult:
        if self._handle is None:
            raise ValueError("matching session is closed")
        (ew,) = _int64(ew)
        if len(ew) != self.num_edges:
            raise ValueError(f"expected {self.num_edges} weights, got {len(ew)}")
        mate = np.empty(self.n, dtype=np.int64)
        duals = np.empty(self.n, dtype=np.int64)
        rc = self._kernel._session_solve(
            self._handle, ew.ctypes.data, mate.ctypes.data, duals.ctypes.data
        )
        _check(rc, self.n)
        return KernelResult(mate, duals)

    def close(self) -> None:
        self._handle = None
        self._free()


def try_load(
    cache: Path | None = None, cc: str = COMPILER, source: Path = SOURCE
) -> tuple[Kernel | None, str | None]:
    """(kernel, None), or (None, why it could not be built or loaded)."""
    try:
        return Kernel(build(cache, cc, source)), None
    except OSError as exc:
        return None, f"cannot build or load {source.name} with {cc!r}: {exc}"


if os.environ.get("PLANARCC_NO_EXT"):
    _kernel, UNAVAILABLE = None, "PLANARCC_NO_EXT is set"
else:
    _kernel, UNAVAILABLE = try_load()


def _loaded() -> Kernel:
    if _kernel is None:
        raise RuntimeError(f"compiled kernel unavailable: {UNAVAILABLE}")
    return _kernel


def open_session(n, eu, ev) -> Session:
    """A session on the graph (n, eu, ev); same contract as the twin's."""
    return Session(_loaded(), n, eu, ev)


def solve_max_weight_matching(n, eu, ev, ew, session: Session | None = None) -> KernelResult:
    """Return (mate, duals); same contract as the pure-Python twin."""
    if session is None:
        return _loaded().solve(n, eu, ev, ew)
    if (n, len(eu)) != (session.n, session.num_edges):
        raise ValueError("graph differs from the one the session was opened on")
    return session.solve(ew)
