"""ctypes binding of the compiled blossom kernel in ``_blossom.c``.

``_blossom.c`` is a line-for-line C99 translation of ``_blossom_py``, so
both kernels return the same mates and duals.  The first import compiles it
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
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_blossom.c")
COMPILER = "cc"
CFLAGS = ("-O3", "-std=c99", "-shared", "-fPIC")

# Return codes of blossom_solve() in _blossom.c.
_OK, _NOMEM, _INPUT, _BROKEN = 0, 1, 2, 3


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


class Kernel:
    """The loaded library's ``blossom_solve``, called with int64 arrays."""

    def __init__(self, path: Path):
        self.path = Path(path)
        fn = ctypes.CDLL(str(self.path)).blossom_solve
        fn.argtypes = [ctypes.c_int64, ctypes.c_int64] + [ctypes.c_void_p] * 5
        fn.restype = ctypes.c_int
        self._fn = fn

    def solve(self, n, eu, ev, ew) -> tuple[list[int], list[int]]:
        """Same contract as ``_blossom_py.solve_max_weight_matching``."""
        if n == 0:
            return [], []
        arrays = [np.ascontiguousarray(a, dtype=np.int64) for a in (eu, ev, ew)]
        if any(a.shape != (len(eu),) for a in arrays):
            raise ValueError("eu, ev and ew must be 1-D and of equal length")
        mate = np.empty(n, dtype=np.int64)
        duals = np.empty(n, dtype=np.int64)
        rc = self._fn(
            n,
            len(eu),
            *(a.ctypes.data for a in arrays),
            mate.ctypes.data,
            duals.ctypes.data,
        )
        if rc == _INPUT:
            raise ValueError(
                "invalid graph: endpoint out of range, self-loop, "
                "or |weight| > 2**52"
            )
        if rc == _NOMEM:
            raise MemoryError(f"blossom kernel: out of memory for n={n}")
        if rc == _BROKEN:
            raise RuntimeError("blossom kernel: an internal invariant failed")
        if rc != _OK:
            raise RuntimeError(f"blossom kernel returned unknown code {rc}")
        return mate.tolist(), duals.tolist()


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


def solve_max_weight_matching(n, eu, ev, ew):
    """Return (mate, duals); same contract as the pure-Python twin."""
    if _kernel is None:
        raise RuntimeError(f"compiled kernel unavailable: {UNAVAILABLE}")
    return _kernel.solve(n, eu, ev, ew)
