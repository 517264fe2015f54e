"""The check table: every check a scenario may enable, in one place.

A run's artifact is a dict of figures; a figure that could not be formed is
None, and the artifact's ``not_evaluated`` maps its name to the reason.
Each row of ``CHECKS`` gives the scenario section whose run forms the
figures, the figure the check reads, its tolerance, its comparison (the
value is at most the tolerance, or at least it for a lower bound) and when
it counts as evaluated: when its figure is a number and the row's own
``needs`` test, if any, holds.  A tolerance, a value or a test that depends
on the run is a function of its figures.

Every tolerance is fixed here: no scenario key sets or loosens one.

Every check of a run's sections is judged, enabled or not, as
``{enabled, ok, evaluated, reason, value, tolerance}``; ``ok`` is False for
a check that was not evaluated.  An artifact passes when every enabled
check is ok.
"""

from typing import Callable, NamedTuple

__all__ = ["CHECKS", "Check", "judge"]


class Check(NamedTuple):
    """One row: ``value`` (default: the figure itself) is at most
    ``tolerance``, or at least it when ``lower``; ``needs`` is a (test,
    reason) pair that must hold for the check to count as evaluated."""

    section: str
    figure: str
    tolerance: object
    lower: bool = False
    value: Callable = None
    needs: tuple = None


def _q_rise(column):
    # Q1 and Q2 may not rise between records by more than this.
    return lambda f: 1e-7 * abs(f[column]) + 1e-9


CHECKS = {
    "q1_monotone": Check("flow", "q1_max_jump", _q_rise("q1_initial")),
    "q1_constant": Check("flow", "q1_drift", 1e-9),
    "area_law": Check("flow", "area_law_residual", 1e-5),
    "barrier": Check("flow", "barrier_lower_margin", -1e-6, lower=True,
                     value=lambda f: min(f["barrier_lower_margin"], f["barrier_upper_margin"])),
    "p_balance": Check("flow", "p_balance_max_rel", 1e-2),
    "q2_monotone": Check("flow", "q2_max_jump", _q_rise("q2_initial"), needs=(
        lambda f: f["q2_samples_in_regime"] >= 1,
        "no pair of consecutive records lies in the regime J <= K")),
    "final_bound": Check("flow", "q1_final", lambda f: f["q1_final_bound"] - 1e-6, lower=True),
    "h_limit": Check("flow", "h_final_gap", 1e-3),
    # The rate lies within 20% of -1/(n-1).
    "grad_decay": Check("flow", "grad_decay_rate", lambda f: 0.2 * (1.0 / (f["n"] - 1)),
                        value=lambda f: abs(f["grad_decay_rate"] + 1.0 / (f["n"] - 1))),
    "mass_value": Check("mass", "mass", lambda f: 1e-6 * max(1.0, abs(f["expect_mass"])),
                        value=lambda f: abs(f["mass"] - f["expect_mass"]),
                        needs=(lambda f: f["expect_mass"] is not None,
                               "needs mass.expect_mass")),
    "mass_identity": Check("mass", "identity_residual",
                           lambda f: 1e-5 * max(1.0, abs(f["identity"]["lhs_mass"]))),
    "penrose": Check("mass", "penrose_deficit", -1e-6, lower=True),
    "penrose_equality": Check("mass", "penrose_deficit", 1e-6,
                              value=lambda f: abs(f["penrose_deficit"])),
    # S2 on 60 radii over [rho_inner + 1e-4, rho_inner + 20].
    "s2_nonneg": Check("mass", "s2_min_probe", -1e-9, lower=True),
    "slice_equality": Check("slice_check", "worst_relative", 1e-8),
    "inequality_ensemble": Check("inequalities", "worst_relative", -1e-7, lower=True),
    "beckner_nonneg": Check("beckner", "worst_relative", -1e-8, lower=True,
                            needs=(lambda f: f["mode"] in ("sphere_axisym", "symmetric"),
                                   "the bound is asserted only on sphere_axisym and "
                                   "symmetric grids")),
}


def _verdict(row, figures, enabled):
    reason = None
    if row.needs is not None and not row.needs[0](figures):
        reason = row.needs[1]
    elif figures[row.figure] is None:
        reason = figures["not_evaluated"][row.figure]
    if reason is not None:
        return {"enabled": enabled, "ok": False, "evaluated": False, "reason": reason,
                "value": None, "tolerance": None}
    value = row.value(figures) if row.value else figures[row.figure]
    tol = row.tolerance(figures) if callable(row.tolerance) else row.tolerance
    ok = value >= tol if row.lower else value <= tol
    return {"enabled": enabled, "ok": bool(ok), "evaluated": True, "reason": None,
            "value": value, "tolerance": tol}


def judge(section, figures, enabled=()):
    """Judge every check of ``section`` on a run's figures.

    Returns ``(checks, passed)``: each check's verdict by name, and whether
    every enabled check was evaluated and is ok.
    """
    checks = {name: _verdict(row, figures, name in enabled)
              for name, row in CHECKS.items() if row.section == section}
    return checks, all(v["ok"] for v in checks.values() if v["enabled"])
