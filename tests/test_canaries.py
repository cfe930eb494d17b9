"""Canaries: each entry scales one formula by 1 + 1e-6 with monkeypatch and
names the independent checks, selfcheck checks or acceptance criteria, that
must then exceed their 1e-8 gate. Byte goldens and unit tests that restate a
formula do not count. A formula that no check catches has no oracle.

Each check also runs unperturbed first, so a canary cannot pass on a check
that was failing anyway.
"""

import pytest

from shoberry import driven, selfcheck

from test_acceptance import (CRITERION_09_CONFIG, CRITERION_09_REP,
                             criterion_09_drives, special_representation_gap)

PERTURBATION = 1e-6
GATE = 1e-8


def criterion_09_closed_vs_quadrature():
    return selfcheck.drive_closed_vs_quadrature(
        CRITERION_09_REP, criterion_09_drives(), CRITERION_09_CONFIG)


# name: (module, attribute scaled, checks it must fail)
CANARIES = {
    # the force's drive rate, which the closed drive term over N tau0 and the
    # special representation's over tau_f both multiply by their duration
    "drive-rate": (driven, "_forced_rate",
                   (criterion_09_closed_vs_quadrature, special_representation_gap)),
}


@pytest.mark.parametrize("name", sorted(CANARIES))
def test_perturbed_formula_fails_its_checks(name, monkeypatch):
    module, attribute, checks = CANARIES[name]
    for check in checks:
        assert check() < GATE, check.__name__
    original = getattr(module, attribute)
    monkeypatch.setattr(module, attribute,
                        lambda *args: original(*args) * (1.0 + PERTURBATION))
    for check in checks:
        assert check() > GATE, check.__name__
