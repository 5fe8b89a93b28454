"""Golden trajectory digests: the decoder's sweep-by-sweep output, pinned.

Each case decodes one seeded instance and hashes the estimates of every
sweep, as ``run`` hands them to ``on_step``.  A kernel change that keeps
these digests produces the same decodes bit for bit.  A change that
means to alter trajectories re-baselines them here, on purpose, and
says so in CHANGES.md.

The cases cover all three variants, F=2 and F=3, activation thresholds
0 and > 0, small and large codebooks, a row where few attentions survive
(``acf`` 0.05/0.05 at M=2236) and rows where about half of them do
(``brn`` at threshold 0).

The instance digests pin what a trial is built from: ``make_instance``'s
product vector, codebooks, planted truth and decoder seed, and the
``acf`` flip masks.  A change to how those are drawn fails here in about
a second, before any trajectory is decoded.
"""

import hashlib

import pytest

from resfact.bench import make_instance
from resfact.factorizer import (
    FactorizerConfig,
    VariantSpec,
    derive_streams,
    perturb_codebooks,
    run,
)

# (id, variant, F, M, D, instance seed, max_iters)
CASES = [
    ("brn-f2-dense", VariantSpec.brn(), 2, 1000, 1000, 7, 120),
    ("acf-f2-sparse", VariantSpec.acf(0.05, 0.05), 2, 2236, 1000, 11, 250),
    ("imf-f2-t0", VariantSpec.imf(0.008), 2, 1000, 1000, 3, 150),
    ("brn-f3-t05", VariantSpec.brn(0.05), 3, 215, 1500, 5, 200),
    ("acf-f3-t05", VariantSpec.acf(0.05, 0.05), 3, 215, 1500, 5, 200),
    ("imf-f3-t05", VariantSpec.imf(0.007, 0.05), 3, 215, 1500, 5, 200),
    ("acf-f2-small", VariantSpec.acf(0.1), 2, 150, 500, 2, 150),
]

# Set-up only: the (100, 4000) brn shape of the benchmark's set-up-bound workload.
INSTANCE_CASES = [
    ("brn-f2-setup", VariantSpec.brn(), 2, 100, 4000, 13, None),
]

DIGESTS = {
    "brn-f2-dense": "3aad50aa7ef8ffbdea7c1fa3e472ef38cc86e9f2a763ad7fbd2f9dc553f52648",
    "acf-f2-sparse": "e2215c428a66982e0a3a51bdebe36c9195e48826363e2e8602b4a7c3da34c49c",
    "imf-f2-t0": "24f827dd5ae04ed3389ef40fca94115f38d990d8537654573727f44dc503b520",
    "brn-f3-t05": "922ffbf28e0d10ef8b46a0662a1591b69ee0bbfff5429403886d15fffb68577d",
    "acf-f3-t05": "6dcb4a50674fb2229c1bbcdb5f47651176145955ebb37481915f08d9b8292b3d",
    "imf-f3-t05": "3a37e8f29bf0ce15826ab25fbc8751d05497cb8e38e2017c75be6add6e19b8fe",
    "acf-f2-small": "de75c743ab38fa2aaadc6e4d0466f48ca44387590c14afb15a1eaae9f8db7912",
}


INSTANCE_DIGESTS = {
    "brn-f2-dense": "23811a72a8426f086189dec805dbb693f69a1ec8b3376eeb5ef056743dddff0e",
    "acf-f2-sparse": "b5dfb892a8c8b50b22fc9fddcb3256dc72476ab50d490217305e352bc1b915a4",
    "imf-f2-t0": "10e868296c0c3435f5e74e56d571a598f222df3c6416fc80dd46ce4684173124",
    "brn-f3-t05": "631bf2d8bcf4f9f12e5484faacd643f8916f65e2a959fd83ed138be0a86d26b8",
    "acf-f3-t05": "631bf2d8bcf4f9f12e5484faacd643f8916f65e2a959fd83ed138be0a86d26b8",
    "imf-f3-t05": "631bf2d8bcf4f9f12e5484faacd643f8916f65e2a959fd83ed138be0a86d26b8",
    "acf-f2-small": "dc3b627108f2a45d15356d631e5e83aa0735a6bc0871767f55a0b558b62ba5ca",
    "brn-f2-setup": "2ecd1621200674556f2b3ce081b3198d2ce2339fd051e42762a78f352d6f042b",
}

MASK_DIGESTS = {
    "acf-f2-sparse": "c0d6cee920bc50d9ab18f1ec1273e37f544fc11ff99c0bf1e9cba07c82d91e84",
    "acf-f3-t05": "867d032dd5cd4b718f6254019c7f2bc36ff865d4a329833d7f5c3d35a482f745",
    "acf-f2-small": "e69d1fd00095461b4e7021f61bce88d6a61714d31887c72b7c39cddc479382dd",
}


def instance_digest(F, M, D, seed) -> str:
    x, books, truth, fact_seed = make_instance(seed, M, F, D)
    digest = hashlib.sha256(x.tobytes())
    for book in books:
        digest.update(book.codevectors.tobytes())
    digest.update(repr((truth, fact_seed)).encode())
    return digest.hexdigest()


def mask_digest(variant, F, M, D, seed) -> str:
    _, books, _, fact_seed = make_instance(seed, M, F, D)
    pbooks = perturb_codebooks(books, variant, derive_streams(fact_seed).masks)
    digest = hashlib.sha256()
    for mask in pbooks.masks:
        digest.update(mask.tobytes())
    return digest.hexdigest()


def trajectory_digest(variant, F, M, D, seed, max_iters) -> str:
    x, books, _, fact_seed = make_instance(seed, M, F, D)
    cfg = FactorizerConfig(variant=variant, F=F, M=M, D=D, max_iters=max_iters,
                           convergence_threshold=0.55, seed=fact_seed)
    digest = hashlib.sha256()
    run(x, books, cfg, on_step=lambda state: digest.update(state.estimates.tobytes()))
    return digest.hexdigest()


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_trajectory_digest(case):
    name, *args = case
    assert trajectory_digest(*args) == DIGESTS[name]


@pytest.mark.parametrize("case", CASES + INSTANCE_CASES,
                         ids=[c[0] for c in CASES + INSTANCE_CASES])
def test_instance_digest(case):
    name, _, F, M, D, seed, *_ = case
    assert instance_digest(F, M, D, seed) == INSTANCE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(MASK_DIGESTS))
def test_acf_mask_digest(name):
    _, variant, F, M, D, seed, *_ = next(c for c in CASES if c[0] == name)
    assert mask_digest(variant, F, M, D, seed) == MASK_DIGESTS[name]
