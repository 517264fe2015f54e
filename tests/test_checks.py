"""Every row of the check table, pinned against a literal copy."""

import pytest

from kflow.checks import CHECKS

# Sample figures of every section.  Each is distinct, so a row that reads
# the wrong figure forms a different value.
FIGURES = {
    "n": 4,
    "q1_initial": -3.0,
    "q1_max_jump": 0.25,
    "q1_drift": 0.5,
    "area_law_residual": 0.125,
    "barrier_lower_margin": 0.75,
    "barrier_upper_margin": -0.5,
    "p_balance_max_rel": 0.0625,
    "q2_initial": 5.0,
    "q2_max_jump": 0.375,
    "q2_samples_in_regime": 1,
    "q1_final": 2.0,
    "q1_final_bound": 1.5,
    "h_final_gap": 0.03125,
    "grad_decay_rate": -0.25,
    "mass": 1.25,
    "expect_mass": -4.0,
    "identity_residual": 1e-3,
    "identity": {"lhs_mass": -8.0},
    "penrose_deficit": -0.5,
    "s2_min_probe": 0.125,
    "worst_relative": -0.25,
    "mode": "sphere_axisym",
}

# Each row as (section, figure, lower bound, tolerance, value), the last two
# written out from the row's formula at FIGURES.  A changed gate fails here.
ROWS = {
    "q1_monotone": ("flow", "q1_max_jump", False, 1e-7 * 3.0 + 1e-9, 0.25),
    "q1_constant": ("flow", "q1_drift", False, 1e-9, 0.5),
    "area_law": ("flow", "area_law_residual", False, 1e-5, 0.125),
    "barrier": ("flow", "barrier_lower_margin", True, -1e-6, -0.5),
    "p_balance": ("flow", "p_balance_max_rel", False, 1e-2, 0.0625),
    "q2_monotone": ("flow", "q2_max_jump", False, 1e-7 * 5.0 + 1e-9, 0.375),
    "final_bound": ("flow", "q1_final", True, 1.5 - 1e-6, 2.0),
    "h_limit": ("flow", "h_final_gap", False, 1e-3, 0.03125),
    "grad_decay": ("flow", "grad_decay_rate", False, 0.2 * (1.0 / 3), abs(-0.25 + 1.0 / 3)),
    "mass_value": ("mass", "mass", False, 1e-6 * 4.0, 5.25),
    "mass_identity": ("mass", "identity_residual", False, 1e-5 * 8.0, 1e-3),
    "penrose": ("mass", "penrose_deficit", True, -1e-6, -0.5),
    "penrose_equality": ("mass", "penrose_deficit", False, 1e-6, 0.5),
    "s2_nonneg": ("mass", "s2_min_probe", True, -1e-9, 0.125),
    "slice_equality": ("slice_check", "worst_relative", False, 1e-8, -0.25),
    "inequality_ensemble": ("inequalities", "worst_relative", True, -1e-7, -0.25),
    "beckner_nonneg": ("beckner", "worst_relative", True, -1e-8, -0.25),
}

# Rows that count as evaluated only on some figures: a change that keeps the
# row evaluated, then one that does not.
NEEDS = {
    "q2_monotone": ({"q2_samples_in_regime": 3}, {"q2_samples_in_regime": 0}),
    "mass_value": ({"expect_mass": 0.0}, {"expect_mass": None}),
    "beckner_nonneg": ({"mode": "symmetric"}, {"mode": "torus2d"}),
}


def _tolerance(row, figures):
    return row.tolerance(figures) if callable(row.tolerance) else row.tolerance


def _value(row, figures):
    return row.value(figures) if row.value else figures[row.figure]


def test_rows_are_the_table():
    assert list(CHECKS) == list(ROWS)


@pytest.mark.parametrize("name", ROWS)
def test_row(name):
    row = CHECKS[name]
    section, figure, lower, tolerance, value = ROWS[name]
    assert (row.section, row.figure, row.lower) == (section, figure, lower)
    assert _tolerance(row, FIGURES) == tolerance
    assert _value(row, FIGURES) == value


@pytest.mark.parametrize("name", ROWS)
def test_row_needs(name):
    row = CHECKS[name]
    if name not in NEEDS:
        assert row.needs is None
        return
    holds, fails = NEEDS[name]
    assert row.needs[0](FIGURES)
    assert row.needs[0]({**FIGURES, **holds})
    assert not row.needs[0]({**FIGURES, **fails})


@pytest.mark.parametrize("name, small, tolerance", [
    ("q1_monotone", {"q1_initial": 0.0}, 1e-9),
    ("q2_monotone", {"q2_initial": 0.0}, 1e-9),
    ("mass_value", {"expect_mass": 0.5}, 1e-6),
    ("mass_identity", {"identity": {"lhs_mass": -0.5}}, 1e-5),
])
def test_tolerance_floor(name, small, tolerance):
    # Relative tolerances keep their absolute floor at small figures.
    assert _tolerance(CHECKS[name], {**FIGURES, **small}) == tolerance
