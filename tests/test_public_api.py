"""Every name the benchmark, the scripts and the acceptance tests take from resfact exists.

Those files are callers the library does not edit along with itself, so
a rename or a deletion in ``src/resfact`` that breaks one of them fails
here, in well under a second, instead of in the benchmark run.  The
package's ``__all__`` exports only names some caller imports.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import resfact
from resfact.factorizer import VariantSpec, _Kernels, perturb_codebooks
from resfact.vsa import generate_codebook

ROOT = Path(__file__).resolve().parents[1]
CALLERS = sorted(
    [ROOT / "perfbench" / "run.py", ROOT / "tests" / "test_acceptance.py"]
    + list((ROOT / "scripts").glob("*.py"))
)
#: ``_Kernels`` attributes the benchmark reads.
KERNEL_ATTRIBUTES = ("search", "recon")


def imported_names(path: Path) -> list:
    """(module, name) for every ``from resfact... import name`` in ``path``, and
    for every ``alias.name`` read off an ``import resfact...`` module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "resfact":
            found += [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "resfact":
                    aliases[a.asname or a.name] = a.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            found.append((aliases[node.value.id], node.attr))
    return found


CALLER_NAMES = [(path.relative_to(ROOT).as_posix(), module, name)
                for path in CALLERS for module, name in imported_names(path)]


def test_callers_are_found():
    assert len(CALLERS) >= 7
    modules = {module for _, module, _ in CALLER_NAMES}
    assert {"resfact.bench", "resfact.factorizer", "resfact.vsa"} <= modules


@pytest.mark.parametrize("caller,module,name", CALLER_NAMES,
                         ids=[f"{c}:{n}" for c, _, n in CALLER_NAMES])
def test_caller_import_resolves(caller, module, name):
    assert hasattr(importlib.import_module(module), name), f"{caller} uses {module}.{name}"


def test_kernels_keep_what_the_benchmark_reads():
    rng = np.random.default_rng(0)
    books = [generate_codebook(4, 70, rng) for _ in range(2)]
    kernels = _Kernels(perturb_codebooks(books, VariantSpec("acf", flip_rate=0.1), rng))
    for attr in KERNEL_ATTRIBUTES:
        assert hasattr(kernels, attr), attr
    # Packed search rows: (M, ceil(D / 64)) words.
    assert all(s.dtype == np.uint64 and s.shape == (4, 2) for s in kernels.search)
    assert len(kernels.search) == len(kernels.recon) == 2


def test_all_names_exist_and_have_a_caller():
    used = {name for _, _, name in CALLER_NAMES}
    for name in resfact.__all__:
        assert hasattr(resfact, name), name
        assert name in used, f"{name} is exported but no caller imports it"
