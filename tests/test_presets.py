import pytest

from resfact.presets import (
    PRESET_FACTOR_COUNTS,
    PresetRow,
    load_preset_table,
    lookup_preset,
)

def test_builtin_table_shape():
    rows = load_preset_table()
    assert len(rows) == 48
    for F in PRESET_FACTOR_COUNTS:
        assert sum(r.F == F for r in rows) == 16
    assert list(rows) == sorted(rows, key=lambda r: (r.F, r.search_space))


def test_exact_lookup_acf():
    got = lookup_preset(2, 1_000_000, "acf")
    assert got.exact
    assert got.D == 1000
    assert got.variant.kind == "acf"
    assert got.variant.flip_rate == 0.1
    assert got.variant.activation_threshold == 0.075


def test_exact_lookup_imf():
    got = lookup_preset(3, 9_938_375, "imf")
    assert got.exact
    assert got.D == 1500
    assert got.variant.sigma == 0.007
    assert got.variant.activation_threshold == 0.05


def test_brn_lookup_has_no_knobs():
    got = lookup_preset(4, 10_000, "brn")
    assert got.exact
    assert got.D == 2000
    assert got.variant.kind == "brn"
    assert got.variant.sigma is None and got.variant.flip_rate is None
    assert got.variant.activation_threshold == 0.0


def test_nearest_lookup_on_log_scale():
    # 5e6 sits between the 4639716 and 9998244 rows; nearer the former in log
    got = lookup_preset(2, 5_000_000, "acf")
    assert not got.exact
    assert got.row.search_space == 4_639_716
    assert got.variant.flip_rate == 0.1


def test_nearest_tie_prefers_smaller_size():
    mk = lambda s: PresetRow(
        F=2,
        search_space=s,
        D=64,
        acf_flip_rate=0.1,
        acf_activation_threshold=0.0,
        imf_sigma=0.01,
        imf_activation_threshold=0.0,
    )
    table = (mk(100), mk(400))
    got = lookup_preset(2, 200, "acf", table=table)  # log-equidistant
    assert not got.exact
    assert got.row.search_space == 100


def test_lookup_rejects():
    with pytest.raises(ValueError):
        lookup_preset(5, 1000, "brn")
    with pytest.raises(ValueError):
        lookup_preset(2, 0, "brn")
    with pytest.raises(ValueError):
        lookup_preset(2, 1000, "abc")
    only_f3 = [r for r in load_preset_table() if r.F == 3]
    with pytest.raises(ValueError):
        lookup_preset(2, 1000, "brn", table=only_f3)
