import copy

import numpy as np
import pytest

from resfact import _sweep, factorizer
from resfact.bench import make_instance
from resfact.factorizer import (
    DEFAULT_ITER_CAP,
    FactorizerConfig,
    FactorizerState,
    VariantSpec,
    derive_streams,
    generate_bfm,
    init_estimates,
    perturb_codebooks,
    run,
    step,
)
from resfact.vsa import (Codebook, bind_product, generate_codebook, random_bipolar,
                         sign_to_bipolar)

from phase_references import (associative_search, detect_convergence_early, reconstruct,
                              threshold_activation, unbind_others)
from test_golden_trajectories import CASES as GOLDEN_CASES


def _instance(M, D, F, seed):
    g = np.random.default_rng(seed)
    books = [generate_codebook(M, D, g) for _ in range(F)]
    truth = tuple(int(i) for i in g.integers(0, M, size=F))
    return bind_product(books, truth), books, truth


# --- configuration objects ---


def test_variant_spec_constructors():
    assert VariantSpec.brn().kind == "brn"
    assert VariantSpec.imf(sigma=0.01).sigma == 0.01
    assert VariantSpec.acf(flip_rate=0.1).flip_rate == 0.1
    assert VariantSpec.acf(flip_rate=0.1, activation_threshold=0.05).activation_threshold == 0.05
    # an unset threshold flag means the default
    assert VariantSpec("brn", activation_threshold=None) == VariantSpec.brn()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="xyz"),
        dict(kind="imf"),  # missing sigma
        dict(kind="imf", sigma=-0.1),
        dict(kind="imf", sigma=0.01, flip_rate=0.1),
        dict(kind="acf"),  # missing flip_rate
        dict(kind="acf", flip_rate=1.5),
        dict(kind="acf", flip_rate=0.1, sigma=0.01),
        dict(kind="brn", sigma=0.01),
        dict(kind="brn", flip_rate=0.1),
        dict(kind="brn", activation_threshold=-0.5),
        dict(kind="imf", sigma=float("nan")),
        dict(kind="imf", sigma=float("inf")),
        dict(kind="acf", flip_rate=0.01, activation_threshold=float("inf")),
        dict(kind="brn", activation_threshold=float("nan")),
    ],
)
def test_variant_spec_rejects(kwargs):
    with pytest.raises(ValueError):
        VariantSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(F=1),
        dict(M=1),
        dict(D=0),
        dict(max_iters=0),
        dict(convergence_threshold=0.0),
        dict(convergence_threshold=1.2),
    ],
)
def test_config_rejects(kwargs):
    base = dict(variant=VariantSpec.brn(), F=2, M=10, D=64)
    base.update(kwargs)
    with pytest.raises(ValueError):
        FactorizerConfig(**base)


def test_resolved_max_iters():
    cfg = FactorizerConfig(variant=VariantSpec.brn(), F=2, M=5, D=64)
    assert cfg.resolved_max_iters() == 25
    big = FactorizerConfig(variant=VariantSpec.brn(), F=3, M=100, D=64)
    assert big.resolved_max_iters() == DEFAULT_ITER_CAP
    fixed = FactorizerConfig(variant=VariantSpec.brn(), F=2, M=5, D=64, max_iters=7)
    assert fixed.resolved_max_iters() == 7


def test_derive_streams_wraps_seed():
    a = derive_streams(5).ties.integers(0, 2**31, size=8)
    b = derive_streams(2**64 + 5).ties.integers(0, 2**31, size=8)
    assert np.array_equal(a, b)


# --- codebook perturbation ---


def test_generate_bfm_extremes(rng):
    assert (generate_bfm(4, 16, 0.0, rng) == 1).all()
    assert (generate_bfm(4, 16, 1.0, rng) == -1).all()


def test_generate_bfm_flip_fraction():
    mask = generate_bfm(1000, 2000, 0.1, np.random.default_rng(8))
    assert mask.dtype == np.int8
    frac = float((mask == -1).mean())
    # 2e6 draws: sampling std ~2e-4
    assert abs(frac - 0.1) < 1e-3


@pytest.mark.parametrize("p", [0.0, 1e-9, 0.05, 0.5, 1.0])
@pytest.mark.parametrize(
    "M, D",
    [(3, 5), (7, 16387), (2236, 1000)],
    ids=["small", "row-longer-than-block", "blocks-cut-rows"],
)
def test_generate_bfm_is_the_uniform_draw(M, D, p):
    # The digests pin masks drawn from one (M, D) float64 uniform; the
    # compiled draw must give the same mask and leave the same stream behind.
    fast, ref = np.random.default_rng(M + D), np.random.default_rng(M + D)
    mask = generate_bfm(M, D, p, fast)
    assert mask.dtype == np.int8 and mask.shape == (M, D)
    assert np.array_equal(mask, np.where(ref.random((M, D)) < p, -1, 1))
    assert fast.bit_generator.state == ref.bit_generator.state
    assert fast.random() == ref.random()


# The compiled draw runs 64 draws at a time in 16 lanes, and the rest one
# by one: lengths around 16 and 64, and long ones that end mid-block.
FLIP_LENGTHS = [1, 15, 16, 17, 63, 64, 65, 7 * 16387, 2236 * 1000]
# 450359962737049 * 2**-53 is dyadic: random draws never meet it, so
# test_flip_limit_is_exact_at_a_dyadic_rate sets a draw at it.
FLIP_RATES = [0.0, 1e-9, 0.05, np.nextafter(0.05, 0.0), 450359962737049 * 2.0**-53, 0.5, 1.0]


@pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "has-uint32"])
@pytest.mark.parametrize("p", FLIP_RATES)
@pytest.mark.parametrize("n", FLIP_LENGTHS)
def test_flip_is_the_uniform_draw(n, p, buffered):
    fast, ref = np.random.default_rng(n), np.random.default_rng(n)
    if buffered:
        # A 32-bit draw leaves half a word in the buffer, which random() neither reads nor clears.
        for g in (fast, ref):
            g.integers(0, 2**32, dtype=np.uint32)
        assert fast.bit_generator.state["has_uint32"] == 1
    book = np.random.default_rng(n + 1).integers(0, 2, size=n, dtype=np.int8) * 2 - 1
    book.flags.writeable = False
    flipped, = factorizer._flip([book], p, fast)
    mask = np.where(ref.random(n) < p, -1, 1)
    assert flipped.dtype == np.int8 and np.array_equal(flipped, book * mask)
    assert fast.bit_generator.state == ref.bit_generator.state
    assert fast.random() == ref.random()


def _pcg64_drawing(raw: int, at: int) -> np.random.Generator:
    """A PCG64 generator whose draw number ``at``, counted from 0, is the 64-bit ``raw``.

    Its state after that draw's step is chosen so that the XSL-RR output
    is ``raw``, and is then stepped back ``at + 1`` times.
    """
    mult, word = 0x2360ED051FC65DA44385DF649FCCF645, 2**64 - 1
    inc = 0x9E3779B97F4A7C15  # any odd increment
    hi = 0x0123456789ABCDEF
    rot = hi >> 58
    state = hi << 64 | hi ^ ((raw << rot | raw >> (64 - rot)) & word)
    for _ in range(at + 1):
        state = (state - inc) * pow(mult, -1, 2**128) % 2**128
    g = np.random.Generator(np.random.PCG64())
    g.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                             "has_uint32": 0, "uinteger": 0}
    return g


@pytest.mark.parametrize("at", [0, 17, 73, 195], ids=["lane-0", "lane-1", "block-1", "tail"])
@pytest.mark.parametrize("below", [False, True], ids=["at-p", "just-below-p"])
def test_flip_limit_is_exact_at_a_dyadic_rate(at, below):
    # p = K * 2**-53 is dyadic: the draw whose 53 leading bits read K is
    # u = p exactly and is not flipped, the one reading K - 1 is.  Random
    # draws meet neither, so the stream is set to make draw `at` one of them.
    K = 450359962737049
    raw = (K - below) << 11 | 0x7FF
    fast, ref = _pcg64_drawing(raw, at), _pcg64_drawing(raw, at)
    u = ref.random(200)
    assert u[at] == (K - below) * 2.0**-53
    flipped, = factorizer._flip([np.ones(200, dtype=np.int8)], K * 2.0**-53, fast)
    assert flipped[at] == (-1 if below else 1)
    assert np.array_equal(flipped, np.where(u < K * 2.0**-53, -1, 1))
    assert fast.bit_generator.state == ref.bit_generator.state


def test_flip_masks_refuse_other_generators():
    books = [generate_codebook(8, 64, np.random.default_rng(0)) for _ in range(2)]
    other = np.random.Generator(np.random.Philox(0))
    with pytest.raises(ValueError, match="PCG64 mask stream"):
        perturb_codebooks(books, VariantSpec.acf(flip_rate=0.1), other)
    with pytest.raises(ValueError, match="PCG64 mask stream"):
        generate_bfm(8, 64, 0.1, other)
    # brn and imf draw no masks, so they take any generator.
    assert perturb_codebooks(books, VariantSpec.brn(), other).masks is None


def test_generate_bfm_rejects_rate(rng):
    with pytest.raises(ValueError):
        generate_bfm(4, 16, -0.01, rng)
    with pytest.raises(ValueError):
        generate_bfm(4, 16, 1.01, rng)


def test_perturb_codebooks_aliases_without_acf(rng):
    books = [generate_codebook(8, 64, rng) for _ in range(2)]
    for variant in (VariantSpec.brn(), VariantSpec.imf(sigma=0.1)):
        p = perturb_codebooks(books, variant, rng)
        assert p.recon_books is p.search_books
        assert p.masks is None
        assert p.search_books[0] is books[0]


def test_perturb_codebooks_acf_masks(rng):
    books = [generate_codebook(8, 64, rng) for _ in range(2)]
    p1 = perturb_codebooks(books, VariantSpec.acf(flip_rate=0.3), np.random.default_rng(4))
    p2 = perturb_codebooks(books, VariantSpec.acf(flip_rate=0.3), np.random.default_rng(4))
    ref = np.random.default_rng(4)
    for f in range(2):
        mask = generate_bfm(8, 64, 0.3, ref)
        assert np.array_equal(p1.masks[f], p2.masks[f])
        assert np.array_equal(p1.masks[f], mask)
        assert np.array_equal(p1.recon_books[f].codevectors, books[f].codevectors * mask)
        assert p1.masks[f].dtype == p1.recon_books[f].codevectors.dtype == np.int8
    # search copy must stay clean
    assert p1.search_books[0] is books[0]


# --- loop phases against manual oracles ---


def test_init_estimates_is_column_majority(rng):
    books = [generate_codebook(9, 128, rng) for _ in range(3)]
    p = perturb_codebooks(books, VariantSpec.brn(), rng)
    state = init_estimates(p, np.random.default_rng(0))
    assert state.estimates.shape == (3, 128)
    assert state.attentions.shape == (3, 9)
    assert np.isnan(state.attentions).all()
    assert state.iteration == 0 and not state.converged
    sums = books[0].codevectors.sum(axis=0)
    decided = sums != 0  # odd M: always, but keep the guard honest
    assert np.array_equal(state.estimates[0][decided], np.sign(sums[decided]))


@pytest.mark.parametrize("D", [1, 63, 64, 65, 130, 4000])
@pytest.mark.parametrize("M", [2, 3, 4, 300])
@pytest.mark.parametrize("variant", [VariantSpec.brn(), VariantSpec.acf(0.3)], ids=["brn", "acf"])
def test_init_estimates_is_sign_to_bipolar_of_int64_column_sums(variant, M, D):
    # The compiled init counts the packed search rows; ties, common at
    # even M, must be drawn as sign_to_bipolar draws them, factor by factor.
    g = np.random.default_rng(M * 10_000 + D)
    books = [generate_codebook(M, D, g) for _ in range(3)]
    p = perturb_codebooks(books, variant, g)
    got_rng, ref_rng = np.random.default_rng(D), np.random.default_rng(D)
    estimates = init_estimates(p, got_rng).estimates
    ref = [sign_to_bipolar(b.codevectors.sum(axis=0, dtype=np.int64), ref_rng) for b in books]
    assert estimates.dtype == np.int8
    assert np.array_equal(estimates, np.stack(ref))
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_init_estimates_refuses_other_init_generators(monkeypatch):
    x, books, _ = _instance(8, 64, 2, seed=3)
    p = perturb_codebooks(books, VariantSpec.brn(), np.random.default_rng(0))
    with pytest.raises(ValueError, match="PCG64 init stream"):
        init_estimates(p, np.random.Generator(np.random.Philox(3)))

    def philox_init(seed):
        streams = derive_streams(seed)
        streams.init = np.random.Generator(np.random.Philox(seed))
        return streams

    monkeypatch.setattr(factorizer, "derive_streams", philox_init)
    cfg = FactorizerConfig(variant=VariantSpec.brn(), F=2, M=8, D=64, seed=3)
    with pytest.raises(ValueError, match="PCG64 init stream"):
        run(x, books, cfg)


def test_unbind_others_manual(rng):
    x = random_bipolar(32, rng)
    est = np.stack([random_bipolar(32, rng) for _ in range(3)])
    out = unbind_others(x, est, 1)
    assert np.array_equal(out, x * est[0] * est[2])


def test_unbind_others_rejects():
    x = np.ones(8, dtype=np.int8)
    est = np.ones((2, 8), dtype=np.int8)
    with pytest.raises(ValueError):
        unbind_others(x, est, 2)
    with pytest.raises(ValueError):
        unbind_others(np.ones(9, dtype=np.int8), est, 0)


def test_associative_search_is_exact_similarity(rng):
    book = generate_codebook(20, 256, rng)
    q = random_bipolar(256, rng)
    alpha = associative_search(q, book, VariantSpec.brn(), rng)
    expected = (book.codevectors.astype(np.int64) @ q.astype(np.int64)) / 256
    assert np.array_equal(alpha, expected)


def test_associative_search_imf_noise_is_seeded(rng):
    book = generate_codebook(20, 256, rng)
    q = random_bipolar(256, rng)
    spec = VariantSpec.imf(sigma=0.05)
    a1 = associative_search(q, book, spec, np.random.default_rng(3))
    a2 = associative_search(q, book, spec, np.random.default_rng(3))
    a3 = associative_search(q, book, VariantSpec.brn(), np.random.default_rng(3))
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, a3)


def test_associative_search_dim_mismatch(rng):
    book = generate_codebook(4, 64, rng)
    with pytest.raises(ValueError):
        associative_search(random_bipolar(32, rng), book, VariantSpec.brn(), rng)


def test_threshold_activation_is_strict():
    alpha = np.array([-0.4, 0.0, 0.3, 0.5, 0.8])
    assert np.array_equal(threshold_activation(alpha, 0.5), [0, 0, 0, 0, 0.8])
    # threshold 0 keeps positives only
    assert np.array_equal(threshold_activation(alpha, 0.0), [0, 0, 0.3, 0.5, 0.8])


def test_reconstruct_matches_manual(rng):
    book = generate_codebook(6, 100, rng)
    w = np.array([0.0, 2.0, 0.0, 1.0, 0.0, 0.0])
    out = reconstruct(w, book, rng)
    s = 2.0 * book[1] + 1.0 * book[3]  # elements in {-3,-1,1,3}: no ties
    assert np.array_equal(out, np.sign(s).astype(np.int8))


def test_reconstruct_all_zero_restarts_random():
    book = generate_codebook(5, 64, np.random.default_rng(0))
    out = reconstruct(np.zeros(5), book, np.random.default_rng(123))
    assert np.array_equal(out, random_bipolar(64, np.random.default_rng(123)))


def test_reconstruct_length_mismatch(rng):
    book = generate_codebook(6, 100, rng)
    with pytest.raises(ValueError):
        reconstruct(np.ones(4), book, rng)


# --- sweep kernels ---


def _sweep_once(estimates, x, pbooks, cfg, streams):
    """One ``factorizer._advance`` sweep from ``estimates``: the new estimates and attentions."""
    state = FactorizerState(estimates=estimates, attentions=np.full((cfg.F, cfg.M), np.nan))
    successor = factorizer._advance(state, x, pbooks._kernels, cfg, streams)
    assert successor.iteration == 1
    return successor.estimates, successor.attentions


@pytest.mark.parametrize("D", [1, 7, 8, 63, 64, 65, 1000, 1500, 4000])
def test_packed_numerators_are_exact_dots(D):
    # Factor 0's update packs x times factor 1's estimate, here all +1, and
    # searches its packed rows: its attentions are the exact dots of x / D.
    g = np.random.default_rng(D)
    books = [generate_codebook(6, D, g) for _ in range(2)]
    pbooks = perturb_codebooks(books, VariantSpec.brn(), g)
    cfg = FactorizerConfig(variant=VariantSpec.brn(), F=2, M=6, D=D)
    estimates = np.ones((2, D), dtype=np.int8)
    rows = books[0].codevectors
    for q in (random_bipolar(D, g), rows[2], -rows[4]):
        _, attentions = _sweep_once(estimates, q, pbooks, cfg, derive_streams(0))
        assert attentions.dtype == np.float64
        assert np.array_equal(attentions[0], (rows.astype(np.int64) @ q.astype(np.int64)) / D)
        assert np.array_equal(attentions[0], associative_search(q, books[0], VariantSpec.brn(), g))
    assert attentions[0][4] == -1.0


# The compiled update sums the survivors' weights from their packed bits,
# 256 columns at a time (D = 255, 256 and 257 straddle one such block), in
# int16 lanes that it adds to int32 sums every 32767 // D rows, so that they
# never exceed the int16 limit.  D = 32767 is the largest D where a weight of
# +-D fits in int16; there the lanes take one row at a time.  From D = 32768
# on, it adds every weight in int32.
@pytest.mark.parametrize("D", [1, 7, 63, 64, 65, 255, 256, 257, 1000, 1500, 4000, 16383, 16384,
                               20000, 32767, 32768])
def test_superpose_kernel_matches_int64_reference(D):
    # Factor 0's rows 0-4 are equal and row 5 is their negation, and factor
    # 1 starts at the truth: factor 0's update weights rows 0-4 by +D, whose
    # sum overflows int16 from D = 6554 on unless the lanes fold in time,
    # and drops row 5 at -D.
    g = np.random.default_rng(D)
    r = random_bipolar(D, g)
    books = [Codebook(np.stack([r] * 5 + [-r])), generate_codebook(6, D, g)]
    x = bind_product(books, (0, 3))
    estimates = np.stack([random_bipolar(D, g), books[1][3]])
    for variant in (VariantSpec.brn(), VariantSpec.acf(0.2)):
        cfg = FactorizerConfig(variant=variant, F=2, M=6, D=D, seed=D)
        streams, ref_streams = derive_streams(cfg.seed), derive_streams(cfg.seed)
        pbooks = perturb_codebooks(books, variant, streams.masks)
        new, attentions = _sweep_once(estimates, x, pbooks, cfg, streams)
        ref_new, ref_attentions, _ = _reference_sweep(x, estimates, pbooks, variant, ref_streams)
        assert np.array_equal(attentions[0], [1.0] * 5 + [-1.0])
        assert np.array_equal(attentions, ref_attentions)
        assert np.array_equal(new, ref_new)
        assert ref_streams.ties.bit_generator.state == streams.ties.bit_generator.state


@pytest.mark.parametrize("variant", [VariantSpec.brn(), VariantSpec.acf(0.05),
                                     VariantSpec.imf(0.01)], ids=["brn", "acf", "imf"])
@pytest.mark.parametrize("layout", ["fortran", "strided", "readonly"])
def test_kernels_make_noncontiguous_books_contiguous(layout, variant):
    # brn and imf reconstruct from the search books themselves; acf builds
    # fresh reconstruction books but packs its search books as given.
    M, D = 30, 200
    x, books, truth = _instance(M, D, 2, seed=6)
    if layout == "fortran":
        odd = [Codebook(np.asfortranarray(b.codevectors)) for b in books]
    elif layout == "strided":
        wide = [np.repeat(b.codevectors, 2, axis=1) for b in books]
        odd = [Codebook(w[:, ::2]) for w in wide]
    else:
        odd = [Codebook(b.codevectors.copy()) for b in books]
        for b in odd:
            b.codevectors.flags.writeable = False
    assert not (odd[0].codevectors.flags.c_contiguous and odd[0].codevectors.flags.writeable)
    cfg = FactorizerConfig(variant=variant, F=2, M=M, D=D, seed=3, max_iters=20)
    got, ref = run(x, odd, cfg), run(x, books, cfg)
    assert got.iterations == ref.iterations and got.indices == ref.indices
    assert np.array_equal(got.state.estimates, ref.state.estimates)


def test_kernels_reject_books_whose_int32_sums_could_overflow():
    # Broadcast books: 2**31 elements each, without the memory.
    row = np.ones((1, 2**15), dtype=np.int8)
    big = [Codebook._unchecked(np.broadcast_to(row, (2**16, 2**15))) for _ in range(2)]
    with pytest.raises(ValueError, match="2\\*\\*31"):
        factorizer._Kernels(perturb_codebooks(big, VariantSpec.brn(), np.random.default_rng(0)))


@pytest.mark.parametrize("variant", [VariantSpec.brn(), VariantSpec.acf(0.1)], ids=["brn", "acf"])
@pytest.mark.parametrize("share", [0.01, 0.1, 0.24, 0.26, 0.5, 1.0])
def test_survivor_rows_reconstruct_like_dense(variant, share):
    # The compiled update sums only the rows that survive; the reference
    # sums every row, weighted by its thresholded numerator.  Row i of
    # factor 0 is r with each element flipped with probability p_i < 0.45,
    # and x unbinds to r, so every attention is positive and a threshold
    # keeps any share of M.
    M, D = 400, 1000
    g = np.random.default_rng(int(share * 100))
    r = random_bipolar(D, g)
    flips = g.random((M, D)) < g.uniform(0.05, 0.45, size=(M, 1))
    books = [Codebook(np.where(flips, -r, r).astype(np.int8)), generate_codebook(M, D, g)]
    x = r * books[1][0]
    estimates = np.stack([random_bipolar(D, g), books[1][0]])
    ranked = np.sort(books[0].codevectors.astype(np.int64) @ r)[::-1] / D
    keep = max(1, round(share * M))
    variant = VariantSpec(variant.kind, flip_rate=variant.flip_rate,
                          activation_threshold=ranked[keep] if keep < M else 0.0)
    cfg = FactorizerConfig(variant=variant, F=2, M=M, D=D, seed=3)
    streams, ref_streams = derive_streams(cfg.seed), derive_streams(cfg.seed)
    pbooks = perturb_codebooks(books, variant, streams.masks)
    new, attentions = _sweep_once(estimates, x, pbooks, cfg, streams)
    ref_new, ref_attentions, _ = _reference_sweep(x, estimates, pbooks, variant, ref_streams)
    assert np.array_equal(attentions, ref_attentions)
    assert np.array_equal(new, ref_new)
    assert ref_streams.ties.bit_generator.state == streams.ties.bit_generator.state
    survivors = (attentions[0] > variant.activation_threshold).sum()
    assert 0.9 * keep <= survivors <= keep


def _reference_sweep(x, estimates, pbooks, variant, streams):
    """One sequential sweep built from the int64 and float64 phase references.

    Reconstruction weights of ``brn`` and ``acf`` are the surviving
    attentions times D, rounded back to the integer numerators the sweep
    weights by.  ``imf``'s are the survivors' real-valued weights,
    numerator + D * sigma * noise, with the noise the search drew.  Also
    returns, per factor, how many reconstruction sums were exactly zero
    (-1 where no attention survived).
    """
    working = estimates.copy()
    attentions = np.empty((len(working), pbooks.search_books[0].size))
    ties = []
    for f in range(len(working)):
        unbound = unbind_others(x, working, f)
        drawn = copy.deepcopy(streams.noise)  # replays the noise the search draws
        alpha = associative_search(unbound, pbooks.search_books[f], variant, streams.noise)
        attentions[f] = alpha
        if variant.kind == "imf":
            numerators = pbooks.search_books[f].codevectors.astype(np.int64) @ unbound
            noisy = numerators + (x.size * variant.sigma) * drawn.standard_normal(alpha.size)
            weights = np.where(alpha > variant.activation_threshold, noisy, 0.0)
        else:
            weights = np.rint(threshold_activation(alpha, variant.activation_threshold) * x.size)
        book = pbooks.recon_books[f]
        ties.append(int((weights @ book.codevectors == 0).sum()) if weights.any() else -1)
        working[f] = reconstruct(weights, book, streams.ties)
    return working, attentions, ties


def _tied_instance(D=64):
    """An F=2 instance whose factor 0 update ties on half of D in every sweep.

    Factor 1's rows are equal, so its estimate stays +-v.  Factor 0's two
    rows differ on the first half of D, and the query x * v agrees with
    each of them on exactly half of that half: their numerators are equal,
    and their sum is exactly zero there.
    """
    g = np.random.default_rng(8)
    r0, v = random_bipolar(D, g), random_bipolar(D, g)
    r1, q = r0.copy(), r0.copy()
    r1[: D // 2] *= -1
    q[: D // 4] *= -1
    books = [Codebook(np.stack([r0, r1])), Codebook(np.stack([v, v]))]
    return q * v, books


_SWEEP_VARIANTS = {
    "brn-dense": (VariantSpec.brn(), "many"), "brn-gather": (VariantSpec.brn(0.05), "few"),
    "acf-dense": (VariantSpec.acf(0.05), "many"), "acf-gather": (VariantSpec.acf(0.05, 0.05), "few"),
    "imf-t0": (VariantSpec.imf(0.02), "many"), "imf-t05": (VariantSpec.imf(0.02, 0.05), "few"),
}
# Shapes with no survivor regime to check: the packing's tail bytes and F = 4.
_SWEEP_EDGES = {"d1": (2, 40, 1), "d7": (2, 40, 7), "d8": (2, 40, 8), "d63": (3, 40, 63),
                "d64": (2, 40, 64), "d65": (2, 40, 65), "d127": (2, 40, 127),
                "f4-d997": (4, 30, 997)}
_SWEEP_CASES = (
    [pytest.param(*shape, variant, regime, id=f"{vid}-{sid}")
     for sid, shape in {"f2": (2, 300, 1000), "f3": (3, 120, 1500)}.items()
     for vid, (variant, regime) in _SWEEP_VARIANTS.items()]
    + [pytest.param(*shape, variant, None, id=f"{vid}-{sid}")
       for sid, shape in _SWEEP_EDGES.items() for vid, (variant, _) in _SWEEP_VARIANTS.items()]
    + [pytest.param(2, 40, 1000, variant, "none", id=f"{variant.kind}-none")
       for variant in (VariantSpec.brn(0.9), VariantSpec.acf(0.05, 0.9), VariantSpec.imf(0.02, 0.9))]
    + [pytest.param(2, 2, 64, variant, "ties", id=f"{variant.kind}-ties")
       for variant in (VariantSpec.brn(), VariantSpec.acf(0.0))]
)


@pytest.mark.parametrize("F, M, D, variant, regime", _SWEEP_CASES)
def test_sweep_matches_int64_references(F, M, D, variant, regime):
    # The sweep must equal the int64/float64 references bit for bit,
    # tie-break and noise draws included, whether about half of M survives
    # (many), a few percent (few), none at all, or the sums tie on half of
    # D.  brn and acf weights are integers; imf's are real, and both sides
    # sum them in float64.
    if regime == "ties":
        x, books = _tied_instance(D)
    else:
        x, books, _ = _instance(M, D, F, seed=M + F)
    cfg = FactorizerConfig(variant=variant, F=F, M=M, D=D, seed=11)
    streams, ref_streams = derive_streams(cfg.seed), derive_streams(cfg.seed)
    pbooks = perturb_codebooks(books, variant, streams.masks)
    estimates = init_estimates(pbooks, streams.init).estimates
    for _ in range(4):
        new, attentions = _sweep_once(estimates, x, pbooks, cfg, streams)
        ref_new, ref_attentions, ties = _reference_sweep(x, estimates, pbooks, variant,
                                                         ref_streams)
        assert np.array_equal(attentions, ref_attentions)
        assert np.array_equal(new, ref_new)
        survivors = (attentions > variant.activation_threshold).sum(axis=1)
        if regime in ("many", "few"):
            assert (survivors > 0).all()
            assert ((survivors >= M // 4) == (regime == "many")).all()
        elif regime == "none":
            assert (survivors == 0).all()
        elif regime == "ties":
            assert ties[0] == D // 2
        estimates = new
    assert ref_streams.ties.bit_generator.state == streams.ties.bit_generator.state
    assert ref_streams.noise.bit_generator.state == streams.noise.bit_generator.state


def _packed_query(q):
    """``q`` packed as the compiled update packs its queries."""
    out = np.empty(-(-q.size // 64), dtype=np.uint64)
    _sweep.pack(np.ascontiguousarray(q, dtype=np.int8).ctypes.data, 1, q.size, out.size,
                _sweep.address(out))
    return out


# M and D on both sides of a 64-bit word: a delta search reads the books
# by columns, whose padding rows and columns must not count.
@pytest.mark.parametrize("M, D", [(2, 1), (5, 63), (64, 64), (65, 130), (129, 777), (300, 1000)])
def test_delta_search_numerators_are_exact_dots(M, D):
    # Every search is forced to one path, afresh (0) or from the bits that
    # changed since the query it kept (1), through 0, 1, a few, D / 2 and
    # all D changed bits.  Builds without a delta search search afresh.
    g = np.random.default_rng(M * D)
    books = [generate_codebook(M, D, g) for _ in range(2)]
    kernels = factorizer._Kernels(perturb_codebooks(books, VariantSpec.brn(), g))
    delta = _sweep.delta_limit(M, -(-D // 64)) >= 0
    q = random_bipolar(D, g)
    for path in (0, 1):
        for changed in (0, 1, min(3, D), D // 2, D):
            q = q.copy()
            q[g.choice(D, changed, replace=False)] *= -1
            packed = _packed_query(q)
            assert _sweep.search(kernels._plan_at, 1, _sweep.address(packed), path) == path * delta
            assert np.array_equal(kernels.nums[1, :M], books[1].codevectors.astype(np.int64) @ q)
    assert list(kernels.searches) == [5 + 5 * (not delta), 5 * delta]


@pytest.mark.parametrize("variant", [VariantSpec.brn(), VariantSpec.acf(0.05, 0.05),
                                     VariantSpec.imf(0.02)], ids=["brn", "acf", "imf"])
@pytest.mark.parametrize("M, D", [(40, 1000), (70, 127)])
def test_sweeps_from_states_near_and_far_from_the_kept_queries(M, D, variant):
    # Each _advance starts where factor 0's query differs from the one it
    # kept by 0, 1, a few, D / 2 or all D bits, or from an unrelated state
    # and back; the first delta search builds the books by columns.
    # Both paths and every switch between them must give the int64
    # references' numerators, attentions and estimates.
    x, books, _ = _instance(M, D, 2, seed=M)
    cfg = FactorizerConfig(variant=variant, F=2, M=M, D=D, seed=5)
    streams, ref_streams = derive_streams(cfg.seed), derive_streams(cfg.seed)
    pbooks = perturb_codebooks(books, variant, streams.masks)
    kernels = pbooks._kernels
    search = [b.codevectors.astype(np.int64) for b in pbooks.search_books]
    g = np.random.default_rng(D)
    start = init_estimates(pbooks, streams.init).estimates
    unrelated = np.stack([random_bipolar(D, g), random_bipolar(D, g)])
    for changed in [0, 0, 1, 3, D // 2, D, 0, 2, "unrelated", 1, "unrelated", 0]:
        if changed == "unrelated":
            start, unrelated = unrelated, start
        else:
            start = start.copy()
            start[1, g.choice(D, changed, replace=False)] *= -1
        new, attentions = _sweep_once(start, x, pbooks, cfg, streams)
        ref_new, ref_attentions, _ = _reference_sweep(x, start, pbooks, variant, ref_streams)
        assert np.array_equal(attentions, ref_attentions)
        assert np.array_equal(new, ref_new)
        assert np.array_equal(kernels.nums[0, :M], search[0] @ (x * start[1]))
        assert np.array_equal(kernels.nums[1, :M], search[1] @ (x * new[0]))
    assert ref_streams.ties.bit_generator.state == streams.ties.bit_generator.state
    assert ref_streams.noise.bit_generator.state == streams.noise.bit_generator.state
    assert kernels.searches[0] > 0
    assert (kernels.searches[1] > 0) == (_sweep.delta_limit(M, -(-D // 64)) >= 0)


def test_activation_thresholds_at_and_just_below_an_attention():
    # brn and acf keep a row when its numerator is at least the least one
    # whose attention is above the threshold.  At a threshold equal to an
    # attention n / D that row drops; at the next double below it stays.
    # 0.1 + 0.2 is above 300 / 1000, so 300 drops there too.
    M, D = 6, 1000
    x, books, truth = _instance(M, D, 2, seed=9)
    g = np.random.default_rng(9)
    estimates = np.stack([random_bipolar(D, g), books[1][truth[1]]])
    estimates[1, g.choice(D, 350, replace=False)] *= -1  # factor 0's best numerator: 300
    numerators = books[0].codevectors.astype(np.int64) @ (x * estimates[1])
    assert numerators.max() == 300
    for variant in (VariantSpec.brn, lambda t: VariantSpec.acf(0.05, t)):
        for n in sorted(set(numerators[numerators > 0])):
            for t, keeps in ((n / D, False), (np.nextafter(n / D, 0), True),
                             (0.1 + 0.2 if n == 300 else n / D, False)):
                cfg = FactorizerConfig(variant=variant(float(t)), F=2, M=M, D=D, seed=4)
                streams, ref_streams = derive_streams(cfg.seed), derive_streams(cfg.seed)
                pbooks = perturb_codebooks(books, cfg.variant, streams.masks)
                new, attentions = _sweep_once(estimates, x, pbooks, cfg, streams)
                ref_new, ref_attentions, _ = _reference_sweep(x, estimates, pbooks, cfg.variant,
                                                              ref_streams)
                assert np.array_equal(attentions, ref_attentions)
                assert np.array_equal(new, ref_new)
                assert ((attentions[0] > t) == (numerators > n - keeps)).all()


def _state_of_550(convergence_threshold=0.8):
    """A state whose next sweep's best attentions are exactly 0.55 and 1.0.

    Row 0 of each book is the truth.  Factor 1's starting estimate
    differs from it in 225 places, so factor 0's best numerator is
    exactly 1000 - 2 * 225 = 550.  Returns the input, the books, the
    config, the streams and the state.
    """
    D = 1000
    g = np.random.default_rng(3)
    books = [generate_codebook(4, D, g) for _ in range(2)]
    x = bind_product(books, (0, 0))
    start = books[1][0].copy()
    start[g.choice(D, 225, replace=False)] *= -1
    cfg = FactorizerConfig(variant=VariantSpec.brn(), F=2, M=4, D=D, seed=0,
                           convergence_threshold=convergence_threshold)
    streams = derive_streams(cfg.seed)
    pbooks = perturb_codebooks(books, cfg.variant, streams.masks)
    state0 = FactorizerState(
        estimates=np.stack([books[0][0], start]), attentions=np.full((2, 4), np.nan)
    )
    return x, pbooks, cfg, streams, state0


def test_attention_of_550_is_not_above_055():
    # float32 division would put 550 / 1000 above 0.55.
    x, pbooks, cfg, streams, state0 = _state_of_550()
    state = step(state0, x, pbooks, cfg, streams)
    assert state.attentions[0].max() == 0.55
    assert state.attentions[1].max() == 1.0
    assert not detect_convergence_early(state, 0.55)
    assert detect_convergence_early(state, 0.549)


@pytest.mark.parametrize("threshold, converged",
                         [(0.55, False), (np.nextafter(0.55, 0), True), (0.549, True)])
@pytest.mark.parametrize("entry", ["_advance", "step"])
def test_compiled_stopping_rule_is_strict(entry, threshold, converged):
    # The sweep's own test, at the state above: factor 1's best attention
    # is 1.0, so only the strict comparison keeps 0.55 from converging.
    # step returns the same verdict.
    x, pbooks, cfg, streams, state0 = _state_of_550(threshold)
    if entry == "step":
        state = step(state0, x, pbooks, cfg, streams)
    else:
        state = factorizer._advance(state0, x, pbooks._kernels, cfg, streams)
    assert state.attentions[0].max() == 0.55
    assert (state.iteration, state.converged) == (1, converged)


def test_step_builds_kernels_once(monkeypatch):
    built = []

    class CountingKernels(factorizer._Kernels):
        def __init__(self, pbooks):
            built.append(pbooks)
            super().__init__(pbooks)

    monkeypatch.setattr(factorizer, "_Kernels", CountingKernels)
    x, books, _ = _instance(8, 64, 2, seed=3)
    # Threshold 1.0: no sweep converges, so step takes all three.
    cfg = FactorizerConfig(variant=VariantSpec.brn(), F=2, M=8, D=64, seed=3,
                           convergence_threshold=1.0)
    streams = derive_streams(cfg.seed)
    p = perturb_codebooks(books, cfg.variant, streams.masks)
    state = init_estimates(p, streams.init)
    for _ in range(3):
        state = step(state, x, p, cfg, streams)
    assert len(built) == 1 and built[0] is p


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 1000, 4000])
def test_compiled_ties_draw_like_numpy(n):
    # The compiled sweep resolves a row's zeros as row[row == 0] =
    # integers(0, 2, size=zeros, dtype=np.int8) * 2 - 1 would: the same
    # values and the same generator state after each call, which starts a
    # fresh byte buffer.  Each seed resolves an all-zero row, then a row
    # with about a third of it zero, then an all-zero row again.
    for seed in range(6):
        g = np.random.default_rng(seed)
        partly = random_bipolar(n, g)
        partly[g.random(n) < 1 / 3] = 0
        ours, ref = derive_streams(seed).ties, derive_streams(seed).ties
        assert _sweep.bitgen(ours.bit_generator) == ours.bit_generator.ctypes.bit_generator.value
        for row in (np.zeros(n, dtype=np.int8), partly, np.zeros(n, dtype=np.int8)):
            expected = row.copy()
            zeros = expected == 0
            expected[zeros] = ref.integers(0, 2, size=int(zeros.sum()), dtype=np.int8) * 2 - 1
            got = row.copy()
            _sweep.ties(_sweep.address(got), n, _sweep.bitgen(ours.bit_generator))
            assert np.array_equal(got, expected)
            assert ours.bit_generator.state == ref.bit_generator.state


def _decode_both_ways(monkeypatch, x, books, cfg):
    """Decode with and without ``on_step``, check that both agree, return the plain result.

    Agreeing covers the indices, the sweep count, the stop, the final
    estimates and attentions and the tie and noise streams' states after
    the run, captured by wrapping ``derive_streams``.  Every state ``on_step`` saw
    must still hold what it held then.
    """
    made = []

    def recorded_streams(seed):
        made.append(derive_streams(seed))
        return made[-1]

    monkeypatch.setattr(factorizer, "derive_streams", recorded_streams)
    plain = run(x, books, cfg)
    seen = []
    stepped = run(x, books, cfg, on_step=lambda state: seen.append(
        (state, state.estimates.copy(), state.attentions.copy())))
    assert (plain.indices, plain.iterations, plain.converged) == (
        stepped.indices, stepped.iterations, stepped.converged)
    assert np.array_equal(plain.state.estimates, stepped.state.estimates)
    assert np.array_equal(plain.state.attentions, stepped.state.attentions)
    assert made[0].ties.bit_generator.state == made[1].ties.bit_generator.state
    assert made[0].noise.bit_generator.state == made[1].noise.bit_generator.state
    assert len(seen) == stepped.iterations and seen[-1][0] is stepped.state
    for i, (state, estimates, attentions) in enumerate(seen, 1):
        assert state.iteration == i
        assert state.converged == (i == stepped.iterations and stepped.converged)
        assert np.array_equal(state.estimates, estimates)
        assert np.array_equal(state.attentions, attentions)
    return plain


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_run_paths_agree_on_golden_cases(monkeypatch, case):
    _, variant, F, M, D, seed, max_iters = case
    x, books, _, fact_seed = make_instance(seed, M, F, D)
    cfg = FactorizerConfig(variant=variant, F=F, M=M, D=D, max_iters=max_iters,
                           convergence_threshold=0.55, seed=fact_seed)
    assert _decode_both_ways(monkeypatch, x, books, cfg).iterations > 1


@pytest.mark.parametrize("variant", [VariantSpec.brn(), VariantSpec.acf(0.0)], ids=["brn", "acf"])
@pytest.mark.parametrize("convergence, converged", [(0.44, True), (0.5, False), (0.8, False)],
                         ids=["converges", "strict", "budget"])
def test_run_paths_agree_when_every_sweep_ties(monkeypatch, variant, convergence, converged):
    # Factor 0's attentions are both 0.5 and its sums tie on half of D in
    # every sweep, so a run stops on a tie sweep, by converging or at the
    # budget.  Factor 1's exceed 0.4375, so only the strict test keeps a
    # run at threshold 0.5 going.
    x, books = _tied_instance()
    cfg = FactorizerConfig(variant=variant, F=2, M=2, D=64, max_iters=6,
                           convergence_threshold=convergence, seed=11)
    result = _decode_both_ways(monkeypatch, x, books, cfg)
    assert result.converged == converged
    assert result.iterations == (1 if converged else 6)


@pytest.mark.parametrize("variant", [VariantSpec.brn(0.9), VariantSpec.acf(0.05, 0.9)],
                         ids=["brn", "acf"])
@pytest.mark.parametrize("D, convergence, converged", [(64, 0.3, True), (1000, 0.8, False)],
                         ids=["converges", "budget"])
def test_run_paths_agree_when_no_attention_survives(monkeypatch, variant, D, convergence,
                                                     converged):
    # No attention reaches 0.9, so every factor draws all of D from the tie
    # stream in every sweep; at D = 64 an attention above 0.3 still ends
    # the run, on such a sweep, after a few of them.
    x, books, _ = _instance(40, D, 2, seed=3)
    cfg = FactorizerConfig(variant=variant, F=2, M=40, D=D, max_iters=20,
                           convergence_threshold=convergence, seed=11)
    result = _decode_both_ways(monkeypatch, x, books, cfg)
    assert (result.state.attentions <= 0.9).all()
    assert result.converged == converged
    assert (result.iterations < 20) == converged and result.iterations > 1


@pytest.mark.parametrize("max_iters, converged", [(100, True), (3, False)],
                         ids=["converges", "budget"])
def test_imf_draws_m_normals_per_factor_update(monkeypatch, max_iters, converged):
    # Each factor update draws its noise as streams.noise.standard_normal(M)
    # does, and a run draws no more: none past the sweep that converges or
    # past the budget, with or without on_step.
    F, M, D = 3, 40, 500
    x, books, _ = _instance(M, D, F, seed=7)
    cfg = FactorizerConfig(variant=VariantSpec.imf(0.02), F=F, M=M, D=D, seed=7,
                           max_iters=max_iters, convergence_threshold=0.55)
    made = []
    monkeypatch.setattr(factorizer, "derive_streams",
                        lambda seed: made.append(derive_streams(seed)) or made[-1])
    for on_step in (None, lambda state: None):
        result = run(x, books, cfg, on_step=on_step)
        assert result.converged == converged and 1 < result.iterations <= max_iters
        replay = derive_streams(cfg.seed).noise
        for _ in range(result.iterations * F):
            replay.standard_normal(M)
        assert made[-1].noise.bit_generator.state == replay.bit_generator.state


def test_compiled_sweep_refuses_other_tie_generators(monkeypatch):
    def philox_ties(seed):
        streams = derive_streams(seed)
        streams.ties = np.random.Generator(np.random.Philox(seed))
        return streams

    x, books, _ = _instance(8, 64, 2, seed=3)
    cfg = FactorizerConfig(variant=VariantSpec.brn(), F=2, M=8, D=64, seed=3)
    monkeypatch.setattr(factorizer, "derive_streams", philox_ties)
    with pytest.raises(ValueError, match="PCG64"):
        run(x, books, cfg)
    streams = philox_ties(cfg.seed)
    p = perturb_codebooks(books, cfg.variant, streams.masks)
    with pytest.raises(ValueError, match="PCG64"):
        step(init_estimates(p, streams.init), x, p, cfg, streams)
    # imf draws its ties in the compiled code too.
    imf = FactorizerConfig(variant=VariantSpec.imf(0.01), F=2, M=8, D=64, seed=3, max_iters=3)
    with pytest.raises(ValueError, match="PCG64"):
        run(x, books, imf)


@pytest.mark.parametrize("shape", [(1, 64), (3, 64), (2, 63), (2, 65)])
def test_step_refuses_estimates_the_books_do_not_fit(shape):
    # The compiled update indexes the estimates by the books' F and D.
    x, books, _ = _instance(8, 64, 2, seed=3)
    cfg = FactorizerConfig(variant=VariantSpec.brn(), F=2, M=8, D=64, seed=3)
    streams = derive_streams(cfg.seed)
    p = perturb_codebooks(books, cfg.variant, streams.masks)
    state = FactorizerState(estimates=np.ones(shape, dtype=np.int8),
                            attentions=np.full((2, 8), np.nan))
    with pytest.raises(ValueError, match="estimates of shape"):
        step(state, x, p, cfg, streams)


@pytest.mark.parametrize("shape", [(63,), (65,), (2, 64)])
def test_advance_refuses_an_input_the_books_do_not_fit(shape):
    # step and run check x against the config first; the compiled update
    # reads D bytes of whatever x _advance is given.
    x, books, _ = _instance(8, 64, 2, seed=3)
    cfg = FactorizerConfig(variant=VariantSpec.brn(), F=2, M=8, D=64, seed=3)
    streams = derive_streams(cfg.seed)
    p = perturb_codebooks(books, cfg.variant, streams.masks)
    with pytest.raises(ValueError, match="an input of shape"):
        factorizer._advance(init_estimates(p, streams.init), np.ones(shape, dtype=np.int8),
                            p._kernels, cfg, streams)


# --- convergence detectors ---


def test_detect_early_strict_and_quantifier():
    state = init_estimates(
        perturb_codebooks(
            [generate_codebook(4, 16, np.random.default_rng(0)) for _ in range(2)],
            VariantSpec.brn(),
            np.random.default_rng(0),
        ),
        np.random.default_rng(0),
    )
    state.attentions = np.array([[0.1, 0.8, 0.0, 0.0], [0.2, 0.0, 0.9, 0.0]])
    assert detect_convergence_early(state, 0.7)
    assert not detect_convergence_early(state, 0.8)  # 0.8 is not > 0.8


def test_detect_early_requires_populated_attentions():
    books = [generate_codebook(4, 16, np.random.default_rng(0)) for _ in range(2)]
    p = perturb_codebooks(books, VariantSpec.brn(), np.random.default_rng(0))
    state = init_estimates(p, np.random.default_rng(0))
    with pytest.raises(ValueError):
        detect_convergence_early(state, 0.8)


# --- stepping and full runs ---


def test_step_attentions_are_pre_activation():
    M, D = 12, 128
    x, books, _ = _instance(M, D, 2, seed=21)
    cfg = FactorizerConfig(
        variant=VariantSpec.brn(activation_threshold=0.5),
        F=2,
        M=M,
        D=D,
        seed=5,
    )
    streams = derive_streams(cfg.seed)
    p = perturb_codebooks(books, cfg.variant, streams.masks)
    state0 = init_estimates(p, streams.init)
    state1 = step(state0, x, p, cfg, streams)
    assert state1.iteration == 1
    # Factor 0 unbinds factor 1's starting estimate; factor 1 then unbinds
    # factor 0's estimate from this same sweep.
    queries = [
        unbind_others(x, state0.estimates, 0),
        unbind_others(x, state1.estimates, 1),
    ]
    for f, query in enumerate(queries):
        expected = associative_search(query, books[f], VariantSpec.brn(), streams.noise)
        # stored before activation: negatives and sub-threshold values intact
        assert np.array_equal(state1.attentions[f], expected)
    assert (state1.attentions < 0).any()
    assert ((state1.attentions > 0) & (state1.attentions <= 0.5)).any()


def test_step_refuses_converged_state():
    x, books, _ = _instance(8, 64, 2, seed=3)
    cfg = FactorizerConfig(variant=VariantSpec.brn(), F=2, M=8, D=64, seed=3)
    streams = derive_streams(cfg.seed)
    p = perturb_codebooks(books, cfg.variant, streams.masks)
    state = init_estimates(p, streams.init)
    state.converged = True
    with pytest.raises(RuntimeError):
        step(state, x, p, cfg, streams)


def test_run_decodes_easy_instance():
    x, books, truth = _instance(10, 1000, 2, seed=0)
    cfg = FactorizerConfig(variant=VariantSpec.brn(), F=2, M=10, D=1000, seed=0)
    res = run(x, books, cfg)
    assert res.indices == truth
    assert res.converged
    assert res.iterations <= 5


def test_run_modes_and_schedules():
    # The one schedule (sequential) and stopping rule (early) decode F=3.
    x, books, truth = _instance(12, 800, 3, seed=11)
    cfg = FactorizerConfig(variant=VariantSpec.brn(), F=3, M=12, D=800, seed=11)
    res = run(x, books, cfg)
    assert res.indices == truth
    assert res.converged


def test_run_is_deterministic():
    x, books, _ = _instance(30, 400, 2, seed=7)
    cfg = FactorizerConfig(variant=VariantSpec.imf(sigma=0.02), F=2, M=30, D=400, seed=99)
    r1 = run(x, books, cfg)
    r2 = run(x, books, cfg)
    assert r1.indices == r2.indices
    assert r1.iterations == r2.iterations
    assert r1.state.estimates.tobytes() == r2.state.estimates.tobytes()
    assert np.array_equal(r1.state.attentions, r2.state.attentions)


def test_run_respects_budget_on_random_input():
    # not a product of codevectors: must stop at the budget, not hang
    g = np.random.default_rng(14)
    books = [generate_codebook(16, 200, g) for _ in range(2)]
    x = random_bipolar(200, g)
    cfg = FactorizerConfig(variant=VariantSpec.brn(), F=2, M=16, D=200, seed=1, max_iters=20)
    res = run(x, books, cfg)
    assert res.iterations <= 20
    assert len(res.indices) == 2


def test_run_input_validation():
    x, books, _ = _instance(8, 64, 2, seed=3)
    ok = dict(variant=VariantSpec.brn(), F=2, M=8, D=64)
    with pytest.raises(ValueError):
        run(x, books[:1], FactorizerConfig(**ok))
    with pytest.raises(ValueError):
        run(x, books, FactorizerConfig(**{**ok, "M": 9}))
    with pytest.raises(ValueError):
        run(x, books, FactorizerConfig(**{**ok, "D": 65}))
    with pytest.raises(ValueError):
        run(np.ones(65, dtype=np.int8), books, FactorizerConfig(**ok))
    # x must be a +-1 vector, for step() as for run().
    cfg = FactorizerConfig(**ok)
    streams = derive_streams(cfg.seed)
    p = perturb_codebooks(books, cfg.variant, streams.masks)
    state = init_estimates(p, streams.init)
    for bad in (np.zeros(64, dtype=np.int8), 3 * x.astype(np.int16), 0.5 * x, x[None, :]):
        with pytest.raises(ValueError, match="input vector"):
            run(bad, books, cfg)
        with pytest.raises(ValueError, match="input vector"):
            step(state, bad, p, cfg, streams)
    # Any dtype holding only +-1 is accepted and decodes like int8.
    assert run(x.astype(np.float64), books, cfg).state.estimates.tobytes() == (
        run(x, books, cfg).state.estimates.tobytes())


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_degenerate_variants_reduce_to_baseline(seed):
    """acf at flip_rate 0 and imf at sigma 0 must retrace brn bit for bit."""
    x, books, _ = _instance(40, 256, 2, seed=seed)
    outcomes = {}
    for spec in (VariantSpec.brn(), VariantSpec.imf(sigma=0.0), VariantSpec.acf(flip_rate=0.0)):
        traj = []
        cfg = FactorizerConfig(
            variant=spec, F=2, M=40, D=256, seed=seed, max_iters=50
        )
        res = run(x, books, cfg, on_step=lambda s: traj.append(s.estimates.tobytes()))
        outcomes[spec.kind] = (res.indices, res.iterations, res.converged, tuple(traj))
    assert outcomes["brn"] == outcomes["imf"] == outcomes["acf"]


def test_noisy_variants_decode_easy_instances():
    x, books, truth = _instance(20, 1000, 2, seed=31)
    for spec in (VariantSpec.imf(sigma=0.01), VariantSpec.acf(flip_rate=0.05)):
        cfg = FactorizerConfig(variant=spec, F=2, M=20, D=1000, seed=31)
        res = run(x, books, cfg)
        assert res.indices == truth, spec.kind
        assert res.converged, spec.kind


def test_small_monte_carlo_accuracy():
    hits = 0
    for seed in range(30):
        x, books, truth = _instance(30, 500, 2, seed=1000 + seed)
        cfg = FactorizerConfig(variant=VariantSpec.brn(), F=2, M=30, D=500, seed=seed)
        res = run(x, books, cfg)
        hits += res.converged and res.indices == truth
    # comfortably inside the regime where the decoder should be near-perfect
    assert hits >= 29
