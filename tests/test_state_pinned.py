"""psi, psi_dx and psi_driven held to pinned bits.

The values are float.hex pairs (real, imaginary) of each entry, recorded
from the state evaluator as it stood before it was rebuilt on the batched
snapshot of the oracle. Any change in the arithmetic of the wavefunction,
even in the last bit or the sign of a zero, fails here. The type is pinned
too: a scalar x gives a Python complex, an array x an ndarray.
"""

import numpy as np
import pytest

from shoberry.driven import DrivingForce, particular_solution, psi_driven
from shoberry.errors import InvalidParameterError
from shoberry.representation import Representation
from shoberry.wavefunction import QuantumState, psi, psi_dx

# (M, w, C, beta), n, x, t, psi bits, psi_dx bits
STATES = [
    ((1.0, 1.0, 1.0, 0.0), 0, 0.3, 0.4,
     [('0x1.68534a4ed0fe4p-1', '-0x1.242a900543cd7p-3')],
     [('-0x1.b063f2c4facabp-3', '0x1.5e99799feaf68p-5')]),
    ((1.0, 1.0, 2.0, 0.4), 3, [-1.2, 0.0, 0.7], 0.9,
     [('-0x1.1aa7b3cad2122p-3', '0x1.4c358952a546cp-2'), ('0x0.0p+0', '-0x0.0p+0'),
      ('0x1.044794bca5469p-3', '-0x1.70d89d29780ffp-2')],
     [('-0x1.50a8a27ba53c0p-4', '0x1.58b12d7f0e7e0p-2'),
      ('0x1.b96af88571094p-3', '-0x1.5c7ae64935db6p-1'),
      ('0x1.cd27fb24d887bp-4', '-0x1.b320574625cdep-3')]),
    ((2.0, 1.5, 0.5, -0.5), 5, [-0.4, 1.1], 2.3,
     [('0x1.b5a6299d29ea4p-3', '-0x1.b9d8a2f61e1a2p-2'),
      ('-0x1.af736e57337c0p-5', '-0x1.c9f46b88340afp-2')],
     [('0x1.9598ea74041d8p-3', '0x1.3bedeeb48848ap-4'),
      ('-0x1.468912bdcdbc2p-1', '-0x1.8541dda326889p-1')]),
]

# n, x, t, psi_driven bits, for D = 0.3 + 0.1i under a two-mode force
DRIVEN = [
    (0, 0.25, 0.7, [('0x1.e3daac6e04bcap-2', '0x1.458387fcdbcfcp-4')]),
    (2, [-0.5, 0.1, 0.9], 4.1,
     [('0x1.55bde51690610p-3', '-0x1.4d6db17cd73abp-2'),
      ('0x1.d8111b41d68bap-7', '-0x1.03a83f45842fdp-6'),
      ('-0x1.95813f11108b5p-2', '0x1.457a560b0813ap-3')]),
]
DRIVEN_REP = Representation(1.0, 1.0, 2.0, 0.3)
FORCE = DrivingForce(0.7, {1: 0.2 - 0.1j, -1: 0.2 + 0.1j, 2: 0.05j, -2: -0.05j})


def _bits(value, x):
    assert type(value) is (complex if np.ndim(x) == 0 else np.ndarray)
    return [(z.real.hex(), z.imag.hex()) for z in np.atleast_1d(value).tolist()]


@pytest.mark.parametrize("fields,n,x,t,psi_bits,dx_bits", STATES)
def test_psi_and_psi_dx_keep_their_bits(fields, n, x, t, psi_bits, dx_bits):
    state = QuantumState(Representation(*fields), n)
    assert _bits(psi(state, x, t), x) == psi_bits
    assert _bits(psi_dx(state, x, t), x) == dx_bits


@pytest.mark.parametrize("n,x,t,bits", DRIVEN)
def test_psi_driven_keeps_its_bits(n, x, t, bits):
    xp = particular_solution(FORCE, DRIVEN_REP, None, 0.3 + 0.1j)
    value = psi_driven(QuantumState(DRIVEN_REP, n), xp, x, t)
    assert _bits(value, x) == bits


def test_array_time_is_refused():
    state = QuantumState(DRIVEN_REP, 1)
    xp = particular_solution(FORCE, DRIVEN_REP, None, 0.3 + 0.1j)
    ts = np.array([0.1, 0.2])
    for call in (lambda: psi(state, 0.3, ts), lambda: psi_dx(state, 0.3, ts),
                 lambda: psi_driven(state, xp, 0.3, ts)):
        with pytest.raises(InvalidParameterError, match="scalar"):
            call()
