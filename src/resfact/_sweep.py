"""Loader of the update sweep's compiled kernels (``_sweep.c``).

Importing this module loads the kernels from a shared library in the
package directory, linked with numpy's ``random/lib/libnpyrandom.a``,
whose ``random_standard_normal`` draws the rare ``imf`` normals that
the compiled ziggurat rejects; loading the library reads that
function's tables back once.  The library's name hashes the source, the
compiler flags, that archive and the host CPU's flags, so each of them
gets a library of its own, and an import that finds its library never
runs the compiler.  Otherwise the import builds it with the system ``cc``
into a file of its own and moves that into place with ``os.replace``:
processes that import at once may each compile, and each one loads a
complete library.  A build then deletes the libraries of other sources
or CPUs beside it; a process that has one loaded keeps using it.

The kernels take a decode's plan by its address; ``plan`` sizes it and lays
it out, so only ``_sweep.c`` knows its fields and the sizes of its buffers.

There is no fallback: without ``cc``, a writable package directory or
numpy's ``libnpyrandom.a``, the import fails with an ``ImportError``
that names which is missing.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import re
import shutil
import subprocess
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_sweep.c")
#: ``-ffp-contract=off``: ``imf``'s multiply-adds round as numpy's, never fused into FMAs.
FLAGS = ("-O3", "-march=native", "-shared", "-fPIC", "-ffp-contract=off")
NPYRANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"


def _cpu_flags() -> str:
    """The host CPU's feature flags, which ``-march=native`` compiles for."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return line
    except OSError:
        pass
    return platform.machine() + platform.processor()


def library_path(source: Path = SOURCE) -> Path:
    """Where the library built from ``source`` on this host lives."""
    if not NPYRANDOM.is_file():
        raise ImportError(f"resfact needs numpy's C random library, {NPYRANDOM}")
    digest = hashlib.sha256(source.read_bytes())
    digest.update(" ".join(FLAGS).encode())
    digest.update(NPYRANDOM.read_bytes())
    digest.update(_cpu_flags().encode())
    return source.with_name(f"{source.stem}-{digest.hexdigest()[:16]}.so")


def _build(source: Path, path: Path) -> None:
    cc = shutil.which("cc")
    if cc is None:
        raise ImportError(f"resfact needs a C compiler, 'cc' on PATH, to build {path}")
    if not os.access(path.parent, os.W_OK):
        raise ImportError(f"cannot build {path.name}: the package directory "
                          f"{path.parent} is not writable")
    tmp = path.with_name(f"{path.stem}.{os.urandom(8).hex()}.so")
    try:
        out = subprocess.run([cc, *FLAGS, "-o", str(tmp), str(source), str(NPYRANDOM), "-lm"],
                             capture_output=True, text=True)
        if out.returncode != 0:
            raise ImportError(f"{cc} could not build {path} from {source}:\n{out.stderr}")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    stale = re.compile(rf"{re.escape(source.stem)}-[0-9a-f]{{16}}\.so")
    for old in path.parent.iterdir():
        if old != path and stale.fullmatch(old.name):
            old.unlink(missing_ok=True)


def address(a) -> int:
    """Address of a writable C-contiguous array's data; cheaper than ``a.ctypes.data``."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def load(source: Path = SOURCE) -> ctypes.CDLL:
    """The kernels compiled from ``source``, built first if this host has no library yet."""
    path = library_path(source)
    if not path.exists():
        _build(source, path)
    lib = ctypes.CDLL(str(path))
    pointer, i64, double = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.resfact_run.argtypes = (pointer, pointer, pointer, pointer, double, double, double,
                                i64, pointer, pointer, ctypes.POINTER(i64))
    lib.resfact_run.restype = i64
    lib.resfact_ties.argtypes = (pointer, i64, pointer)
    lib.resfact_ties.restype = None
    lib.resfact_pack.argtypes = (pointer, i64, i64, i64, pointer)
    lib.resfact_pack.restype = None
    lib.resfact_expand.argtypes = (pointer, i64)
    lib.resfact_expand.restype = None
    lib.resfact_init.argtypes = (pointer, pointer, pointer)
    lib.resfact_init.restype = None
    lib.resfact_search.argtypes = (pointer, i64, pointer, i64)
    lib.resfact_search.restype = i64
    lib.resfact_delta_limit.argtypes = (i64, i64)
    lib.resfact_delta_limit.restype = i64
    lib.resfact_flip.argtypes = (pointer, i64, double, pointer, pointer)
    lib.resfact_flip.restype = None
    lib.resfact_normals.argtypes = (pointer, i64, pointer)
    lib.resfact_normals.restype = None
    lib.resfact_plan.argtypes = (pointer, pointer, pointer, i64, i64, i64, pointer, pointer)
    lib.resfact_plan.restype = i64
    return lib


# A prototype of its own: setting argtypes on ctypes.pythonapi's shared
# function object would change it for every other user in the process.
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def bitgen(bit_generator) -> int:
    """Address of a numpy bit generator's ``bitgen_t``, which the kernels draw from.

    The same address as ``bit_generator.ctypes.bit_generator``, read from
    the generator's capsule, which costs far less on first use.
    """
    return _capsule_pointer(bit_generator.capsule, b"BitGenerator")


_lib = load()
plan, run, ties, pack, expand, init, search, delta_limit, flip, normals = (
    _lib.resfact_plan, _lib.resfact_run, _lib.resfact_ties, _lib.resfact_pack,
    _lib.resfact_expand, _lib.resfact_init, _lib.resfact_search, _lib.resfact_delta_limit,
    _lib.resfact_flip, _lib.resfact_normals)
