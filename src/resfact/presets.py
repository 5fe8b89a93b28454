"""Tuned hyperparameter presets for the benchmark sweeps.

The package ships a table of tuned settings, one row per (number of
factors, search-space size): dimension D, the acf flip rate and
activation threshold, and the imf noise level and activation threshold.
``lookup_preset`` resolves a row for a requested size, exactly when the
size is in the table and by nearest size on a log scale otherwise (the
result says which).
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence, get_type_hints

from .factorizer import VariantSpec

PRESET_FACTOR_COUNTS = (2, 3, 4)


@dataclass(frozen=True)
class PresetRow:
    F: int
    search_space: int
    D: int
    acf_flip_rate: float
    acf_activation_threshold: float
    imf_sigma: float
    imf_activation_threshold: float


#: The table's columns in file order, each with the type its cells parse to.
COLUMN_TYPES = get_type_hints(PresetRow)
COLUMNS = tuple(COLUMN_TYPES)


@dataclass(frozen=True)
class PresetLookup:
    """Resolved hyperparameters for one (F, size, variant) query.

    ``exact`` is False when the nearest table row was substituted for a
    size not present verbatim; ``row`` is the table row that supplied the
    values either way.
    """

    variant: VariantSpec
    D: int
    exact: bool
    row: PresetRow


@functools.cache
def load_preset_table() -> tuple:
    """The preset rows shipped inside the package, sorted by (F, search_space)."""
    text = resources.files("resfact").joinpath("data/presets.csv").read_text()
    rows = [PresetRow(**{c: COLUMN_TYPES[c](rec[c]) for c in COLUMNS})
            for rec in csv.DictReader(text.splitlines())]
    return tuple(sorted(rows, key=lambda r: (r.F, r.search_space)))


def lookup_preset(
    F: int,
    search_space: int,
    kind: str,
    table: Optional[Sequence[PresetRow]] = None,
) -> PresetLookup:
    """Resolve hyperparameters for a variant at one search-space size.

    Exact-size rows are returned as-is.  Otherwise the row whose size is
    nearest on a log scale substitutes, flagged ``exact=False`` (ties go
    to the smaller size).  ``brn`` has no tuned knobs; it gets the row's
    dimension and a zero activation threshold.  An unknown ``kind`` is
    rejected by the ``VariantSpec`` constructor.
    """
    if F not in PRESET_FACTOR_COUNTS:
        raise ValueError(f"no presets for F={F}; available F: {PRESET_FACTOR_COUNTS}")
    if search_space < 1:
        raise ValueError(f"search_space must be positive, got {search_space}")
    rows = [r for r in (table if table is not None else load_preset_table()) if r.F == F]
    if not rows:
        raise ValueError(f"preset table has no rows for F={F}")
    exact = [r for r in rows if r.search_space == search_space]
    if exact:
        row, is_exact = exact[0], True
    else:
        target = math.log(search_space)
        row = min(rows, key=lambda r: (abs(math.log(r.search_space) - target), r.search_space))
        is_exact = False
    knobs = {
        "imf": dict(sigma=row.imf_sigma, activation_threshold=row.imf_activation_threshold),
        "acf": dict(flip_rate=row.acf_flip_rate,
                    activation_threshold=row.acf_activation_threshold),
    }.get(kind, {})
    return PresetLookup(variant=VariantSpec(kind, **knobs), D=row.D, exact=is_exact, row=row)
