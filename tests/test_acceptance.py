"""Acceptance suite: the twelve headline claims, each at its stated tolerance.

Each criterion is defined once, in the ``lindbladprep.verify`` check
registry; the tests here only run the registry entry with that number, so
this suite and ``verify full`` run the same checks.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Everything is seeded, so results are bit-reproducible.
"""

from lindbladprep.verify import CHECKS

CRITERIA = {c.criterion: c for c in CHECKS if c.criterion is not None}


def run_criterion(num: int) -> None:
    check = CRITERIA[num]
    ok, detail = check.fn()
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {check.claim} :: {detail}")
    assert ok, f"criterion {num}: {check.claim} :: {detail}"


def test_registry_numbers_criteria_1_to_12():
    assert sorted(CRITERIA) == list(range(1, 13))
    assert len(CRITERIA) == sum(c.criterion is not None for c in CHECKS)


def test_criterion_01_tfim4_reproduction():
    run_criterion(1)


def test_criterion_02_discrete_cost_advantage():
    run_criterion(2)


def test_criterion_03_hubbard4_reproduction():
    run_criterion(3)


def test_criterion_04_dilation_error_scaling():
    run_criterion(4)


def test_criterion_05_quadrature_convergence():
    run_criterion(5)


def test_criterion_06_cancellation_identity():
    run_criterion(6)


def test_criterion_07_channel_second_order():
    run_criterion(7)


def test_criterion_08_global_first_order():
    run_criterion(8)


def test_criterion_09_cptp_invariants():
    run_criterion(9)


def test_criterion_10_ergodicity():
    run_criterion(10)


def test_criterion_11_concentration():
    run_criterion(11)


def test_criterion_12_fixed_point_stability():
    run_criterion(12)
