"""Building and loading the compiled sweep kernels (``resfact._sweep``)."""

import ctypes
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from resfact import _sweep, factorizer
from resfact.factorizer import (FactorizerConfig, VariantSpec, _Kernels, derive_streams,
                                init_estimates, perturb_codebooks)
from resfact.vsa import bind_product, generate_codebook

PACKAGE = Path(_sweep.__file__).parent

DECODE = """
import numpy as np
from resfact import FactorizerConfig, VariantSpec, make_instance, run

x, books, truth, seed = make_instance(3, 20, 2, 500)
cfg = FactorizerConfig(variant=VariantSpec.brn(), F=2, M=20, D=500, seed=seed)
assert run(x, books, cfg).indices == truth
print("decoded")
"""


def _env(pythonpath: Path, **extra) -> dict:
    return dict(os.environ, PYTHONPATH=str(pythonpath), **extra)


def _package_copy(tmp_path: Path) -> Path:
    """A copy of the package's sources, without a built library."""
    pkg = tmp_path / "src" / "resfact"
    shutil.copytree(PACKAGE, pkg, ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    return pkg


def test_a_cached_import_never_calls_the_compiler(tmp_path):
    # The library is built: this process imported it.  With no cc on PATH,
    # a fresh process must still import and decode.
    assert _sweep.library_path().exists()
    out = subprocess.run([sys.executable, "-c", DECODE], capture_output=True, text=True,
                         timeout=120, env=_env(PACKAGE.parent, PATH=str(tmp_path)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["decoded"]


def test_processes_that_import_at_once_both_build_and_decode(tmp_path):
    pkg = _package_copy(tmp_path)
    procs = [subprocess.Popen([sys.executable, "-c", DECODE], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=_env(pkg.parent))
             for _ in range(2)]
    results = [p.communicate(timeout=120) for p in procs]
    for p, (stdout, stderr) in zip(procs, results):
        assert p.returncode == 0, stderr
        assert stdout.split() == ["decoded"]
    # One library, and no build's temporary file left behind.
    assert [p.name for p in pkg.glob("*.so")] == [_sweep.library_path(pkg / "_sweep.c").name]


def test_the_library_name_follows_the_source(tmp_path):
    source = _package_copy(tmp_path) / "_sweep.c"
    before = _sweep.library_path(source)
    source.write_text(source.read_text() + "\n/* edited */\n")
    assert _sweep.library_path(source) != before


def test_a_build_deletes_the_libraries_of_other_sources(tmp_path):
    pkg = _package_copy(tmp_path)
    source = pkg / "_sweep.c"
    old = _sweep.load(source)
    source.write_text(source.read_text() + "\n/* edited */\n")
    # Another build's temporary file and a library of another name stay.
    kept = [pkg / f"{_sweep.library_path(source).stem}.{'0' * 16}.so", pkg / "other-0.so"]
    for path in kept:
        path.touch()
    _sweep.load(source)
    assert sorted(pkg.glob("*.so")) == sorted([_sweep.library_path(source), *kept])
    # The deleted library stays usable in the process that loaded it: with
    # factor 1's estimate all +1, factor 0's update in a sweep of budget 1
    # searches x itself.
    g = np.random.default_rng(0)
    books = [generate_codebook(4, 64, g) for _ in range(2)]
    kernels = _Kernels(perturb_codebooks(books, VariantSpec.brn(), g))
    x = books[0].codevectors[2]
    working, attentions = np.ones((2, 64), dtype=np.int8), np.zeros((2, 4))
    converged = ctypes.c_int64()
    ties = np.random.default_rng(0).bit_generator
    with ties.lock:
        assert old.resfact_run(kernels._plan_at, x.ctypes.data, working.ctypes.data,
                               attentions.ctypes.data, 0.0, 0.0, 1.0, 1,
                               _sweep.bitgen(ties), None, ctypes.byref(converged)) == 1
    assert np.array_equal(attentions[0], books[0].codevectors.astype(np.int64) @ x / 64)
    assert attentions[0][2] == 1.0


def test_a_missing_compiler_is_named(tmp_path, monkeypatch):
    source = _package_copy(tmp_path) / "_sweep.c"
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    with pytest.raises(ImportError, match="'cc'"):
        _sweep.load(source)


def test_a_missing_numpy_random_library_is_named(tmp_path, monkeypatch):
    source = _package_copy(tmp_path) / "_sweep.c"
    missing = tmp_path / "numpy" / "random" / "lib" / "libnpyrandom.a"
    monkeypatch.setattr(_sweep, "NPYRANDOM", missing)
    with pytest.raises(ImportError, match=re.escape(str(missing))):
        _sweep.load(source)


def test_the_library_name_follows_numpy_random_library(tmp_path, monkeypatch):
    source = _package_copy(tmp_path) / "_sweep.c"
    archive = tmp_path / "libnpyrandom.a"
    shutil.copyfile(_sweep.NPYRANDOM, archive)
    monkeypatch.setattr(_sweep, "NPYRANDOM", archive)
    before = _sweep.library_path(source)
    archive.write_bytes(archive.read_bytes() + b"\n")
    assert _sweep.library_path(source) != before


def test_an_unwritable_package_directory_is_named(tmp_path, monkeypatch):
    pkg = _package_copy(tmp_path)
    pkg.chmod(0o555)
    try:
        if os.geteuid() == 0:
            # Root writes through the mode bits; report the directory unwritable.
            access = os.access
            monkeypatch.setattr(os, "access", lambda path, mode: (
                Path(path) != pkg and access(path, mode)))
        with pytest.raises(ImportError, match=f"{pkg} is not writable"):
            _sweep.load(pkg / "_sweep.c")
    finally:
        pkg.chmod(0o755)


@pytest.fixture(scope="module")
def portable_library(tmp_path_factory):
    """The kernels built from a package copy without AVX-512: the plain-C reconstructions."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_sweep, "FLAGS", _sweep.FLAGS + ("-mno-avx512f",))
        return _sweep.load(_package_copy(tmp_path_factory.mktemp("portable")) / "_sweep.c")


#: Bytes of 0xA5 after each plan that ``_laid_out`` lays out, which no kernel may write.
GUARD = 64


def _laid_out(lib, kernels, offset=0):
    """A plan that ``lib``'s resfact_plan lays out over ``kernels``' packed books.

    The block starts ``offset`` bytes past a 64-byte address.  Returns the
    block, which ends in ``GUARD`` guard bytes past the size resfact_plan
    gives, the plan's numerators and its search counts.
    """
    factors, size, dim = kernels.shape
    nums, searches = np.empty_like(kernels.nums), np.zeros(2, dtype=np.int64)
    args = (kernels.search[0].ctypes.data, kernels.recon[0].ctypes.data, size, dim, factors,
            nums.ctypes.data, searches.ctypes.data)
    need = lib.resfact_plan(None, *args)
    room = np.full(need + GUARD + 64, 0xA5, dtype=np.uint8)
    start = (offset - room.ctypes.data) % 64
    block = room[start:start + need + GUARD]
    assert block.ctypes.data % 64 == offset
    assert lib.resfact_plan(block.ctypes.data, *args) == need
    return block, nums, searches


def _decode(lib, x, books, variant, seed, sweeps, queries=(), offset=0):
    """``lib``'s initial estimates, then ``sweeps`` update sweeps of its resfact_run.

    The plan is one that ``lib`` lays out itself, in a block ``offset``
    bytes past a 64-byte address.  After the sweeps
    factor 1 searches each packed query of ``queries`` from the changed
    bits where the build can, then afresh.  Returns the estimates before
    and after, the attentions and factor by factor the numerators, then
    the sweep count, the stop and the init, tie and noise streams' states
    after the run, and apart from those the numbers of full and of delta
    searches.  Checks that no kernel wrote past the plan.
    """
    streams = derive_streams(seed)
    pbooks = perturb_codebooks(books, variant, streams.masks)
    kernels = _Kernels(pbooks)
    block, nums, searches = _laid_out(lib, kernels, offset)
    working = np.empty((len(books), books[0].dim), dtype=np.int8)
    with streams.init.bit_generator.lock:
        lib.resfact_init(block.ctypes.data, working.ctypes.data,
                         _sweep.bitgen(streams.init.bit_generator))
    init = working.copy()
    attentions = np.empty((len(books), books[0].size))
    converged = ctypes.c_int64()
    with streams.ties.bit_generator.lock, factorizer._pcg_words(streams.noise, "noise") as st:
        done = lib.resfact_run(block.ctypes.data, x.ctypes.data, working.ctypes.data,
                               attentions.ctypes.data, variant.activation_threshold,
                               variant.sigma or 0.0, 1.0, sweeps,
                               _sweep.bitgen(streams.ties.bit_generator),
                               st.ctypes.data if variant.kind == "imf" else None,
                               ctypes.byref(converged))
    for query in queries:
        for path in (1, 0):
            lib.resfact_search(block.ctypes.data, 1, query.ctypes.data, path)
    assert (block[-GUARD:] == 0xA5).all()
    return (init, working, attentions, nums[:, :books[0].size], done, converged.value,
            streams.init.bit_generator.state, streams.ties.bit_generator.state,
            streams.noise.bit_generator.state), searches.tolist()


def _packed(lib, rows):
    """``rows`` packed by ``lib``'s resfact_pack."""
    out = np.empty((rows.shape[0], -(-rows.shape[1] // 64)), dtype=np.uint64)
    lib.resfact_pack(rows.ctypes.data, *rows.shape, out.shape[1], out.ctypes.data)
    return out


def _expanded(lib, raw):
    """A copy of the int8 ``raw`` turned into +-1 by ``lib``'s resfact_expand."""
    out = raw.copy()
    lib.resfact_expand(out.ctypes.data, out.size)
    return out


@pytest.mark.parametrize("D", [1, 65, 255, 256, 257, 1000])
@pytest.mark.parametrize("variant",
                         [VariantSpec.brn(), VariantSpec.acf(0.1), VariantSpec.imf(0.02)],
                         ids=["brn", "acf", "imf"])
def test_the_portable_build_decodes_as_the_default_build(portable_library, variant, D):
    # 300 rows: at D = 1000 about half survive, more than the 32 the
    # vectorized sum adds in int16 before it folds them into int32.  An
    # even number of rows leaves ties in the initial estimates.  imf's
    # real-valued sums are exact neither way, so both builds must add the
    # same terms in the same order.
    g = np.random.default_rng(D)
    books = [generate_codebook(300, D, g) for _ in range(2)]
    x = bind_product(books, (4, 7))
    got, _ = _decode(portable_library, x, books, variant, D, 12)
    ref, _ = _decode(_sweep._lib, x, books, variant, D, 12)
    for a, b in zip(got[:4], ref[:4]):
        assert np.array_equal(a, b)
    assert got[4:] == ref[4:]
    # The set-up kernels give the same bytes, across whole 64-byte blocks and tails.
    rows = books[0].codevectors
    assert np.array_equal(_packed(portable_library, rows), _packed(_sweep._lib, rows))
    raw = g.integers(-128, 128, size=300 * D, dtype=np.int8)
    assert np.array_equal(_expanded(portable_library, raw), _expanded(_sweep._lib, raw))
    assert np.array_equal(_expanded(_sweep._lib, raw), np.where(raw < 0, 1, -1))


def _words(rng):
    """``rng``'s PCG64 state as the compiled draws take it: 4 uint64 words."""
    pcg = rng.bit_generator.state["state"]
    return np.array([pcg["state"] & (2**64 - 1), pcg["state"] >> 64,
                     pcg["inc"] & (2**64 - 1), pcg["inc"] >> 64], dtype=np.uint64)


def _flipped(lib, rng, p, book):
    """``book`` flipped by ``lib``'s resfact_flip at rate ``p``, and ``rng``'s PCG64 state after it."""
    st = _words(rng)
    out = np.empty_like(book)
    lib.resfact_flip(st.ctypes.data, book.size, p, book.ctypes.data, out.ctypes.data)
    return out, st.tolist()


def _normals(lib, rng, n):
    """``n`` normals of ``lib``'s resfact_normals from ``rng``'s PCG64 state, and that state after them."""
    st = _words(rng)
    out = np.empty(n)
    lib.resfact_normals(st.ctypes.data, n, out.ctypes.data)
    return out, st.tolist()


@pytest.mark.parametrize("n", [1, 63, 64, 65, 1000, 7 * 16387])
@pytest.mark.parametrize("p", [0.0, 0.05, 450359962737049 * 2.0**-53, 1.0])
def test_the_portable_build_flips_as_the_default_build(portable_library, p, n):
    # The portable build steps the stream one draw at a time; the default
    # one, with AVX-512, runs 16 lanes for each whole block of 64 draws.
    g = np.random.default_rng(n)
    book = g.integers(0, 2, size=n, dtype=np.int8) * 2 - 1
    got, got_state = _flipped(portable_library, g, p, book)
    ref, ref_state = _flipped(_sweep._lib, g, p, book)
    assert np.array_equal(got, ref) and got_state == ref_state
    assert np.array_equal(ref, book * np.where(g.random(n) < p, -1, 1))
    assert g.bit_generator.state["state"]["state"] == ref_state[1] << 64 | ref_state[0]


@pytest.mark.parametrize("n", [1, 9, 215, 513, 4642])
def test_the_portable_build_draws_normals_as_the_default_build(portable_library, n):
    # The portable build steps the stream one word at a time and tries
    # every draw alone; the default one takes its words from 16 lanes and
    # tries eight draws at a time.  Both hand numpy the draws it rejects.
    g = np.random.default_rng(n)
    got, got_state = _normals(portable_library, g, n)
    ref, ref_state = _normals(_sweep._lib, g, n)
    assert got.tobytes() == ref.tobytes() and got_state == ref_state
    assert ref.tobytes() == g.standard_normal(n).tobytes()
    assert g.bit_generator.state["state"]["state"] == ref_state[1] << 64 | ref_state[0]


@pytest.mark.parametrize("flags", [(), ("-mno-avx512f",)], ids=["default", "portable"])
def test_the_source_compiles_without_warnings(tmp_path, flags):
    # Each build compiles only its own kernels, and no helper goes unused in either.
    cc = shutil.which("cc")
    out = subprocess.run([cc, *(f for f in _sweep.FLAGS if f != "-shared"), *flags, "-Wall",
                          "-Wextra", "-Werror", "-c", "-o", str(tmp_path / "sweep.o"),
                          str(_sweep.SOURCE)], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("D", [1000, 1001])
@pytest.mark.parametrize("variant",
                         [VariantSpec.brn(), VariantSpec.acf(0.05, 0.05), VariantSpec.imf(0.005)],
                         ids=["brn", "acf", "imf"])
def test_the_portable_build_decodes_as_the_default_builds_delta_searches(portable_library,
                                                                        variant, D):
    # 60 sweeps of an instance that decodes early, at a stopping level no
    # attention passes, so that the default build moves each factor's kept
    # numerators by the query bits that changed.  The portable build
    # searches afresh every time.
    g = np.random.default_rng(D)
    books = [generate_codebook(300, D, g) for _ in range(2)]
    x = bind_product(books, (4, 7))
    got, portable = _decode(portable_library, x, books, variant, D, 60)
    ref, default = _decode(_sweep._lib, x, books, variant, D, 60)
    for a, b in zip(got[:4], ref[:4]):
        assert np.array_equal(a, b)
    assert got[4:] == ref[4:]
    assert portable == [120, 0]
    assert sum(default) == 120
    assert (default[1] > 0) == (_sweep.delta_limit(300, -(-D // 64)) >= 0)


@pytest.mark.parametrize("M, D", [(2, 1), (65, 130), (300, 1000)])
@pytest.mark.parametrize("build", ["default", "portable"])
def test_a_plan_stays_within_its_block(portable_library, build, M, D):
    # A plan in a block of the size resfact_plan gives, followed by guard
    # bytes, through the init, 20 sweeps and then searches of factor 1
    # from the changed bits (which build its books by columns) and afresh:
    # _decode checks the guard bytes, and the estimates, numerators and
    # search counts are those of a _Kernels decode.  Rows and dimensions
    # on both sides of a 64-bit word lay out padded buffers, and blocks
    # at every 8-byte offset from a 64-byte address move the alignment
    # padding before the first of them.
    lib = portable_library if build == "portable" else _sweep._lib
    g = np.random.default_rng(M * D)
    books = [generate_codebook(M, D, g) for _ in range(2)]
    x = bind_product(books, (1, 0))
    queries = list(_packed(_sweep._lib, g.integers(0, 2, size=(3, D), dtype=np.int8) * 2 - 1))
    laid_out = [_decode(lib, x, books, VariantSpec.brn(), M, 20, queries, offset)
                for offset in range(0, 64, 8)]
    got, searches = laid_out[0]
    for other, other_searches in laid_out[1:]:
        for a, b in zip(got[:4], other[:4]):
            assert np.array_equal(a, b)
        assert other[4:] == got[4:] and other_searches == searches
    cfg = FactorizerConfig(variant=VariantSpec.brn(), F=2, M=M, D=D, seed=M,
                           convergence_threshold=1.0)
    streams = derive_streams(cfg.seed)
    pbooks = perturb_codebooks(books, cfg.variant, streams.masks)
    start = init_estimates(pbooks, streams.init)
    state = factorizer._advance(start, x, pbooks._kernels, cfg, streams, 20)
    for query in queries:
        for path in (1, 0):
            _sweep.search(pbooks._kernels._plan_at, 1, query.ctypes.data, path)
    for a, b in zip(got[:4], (start.estimates, state.estimates, state.attentions,
                              pbooks._kernels.nums[:, :M])):
        assert np.array_equal(a, b)
    assert got[4] == state.iteration == 20
    kept = pbooks._kernels.searches.tolist()
    assert searches == (kept if build == "default" else [sum(kept), 0])
    assert (kept[1] >= len(queries)) == (_sweep.delta_limit(M, -(-D // 64)) >= 0)
