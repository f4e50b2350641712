"""Two uses of a qubit channel: ququart inputs where additivity is a theorem.

C_E is additive for every channel (Bennett, Shor, Smolin and Thapliyal).
C_{1,inf} is additive for unital qubit channels (King) and for
entanglement-breaking channels (Shor); for the others two uses give at least
twice one use.
"""

import numpy as np
import pytest

from qchancap.c1inf import C1InfProblem, c1inf
from qchancap.channels import amplitude_damping, bsc_embed, dephasing, depolarizing
from qchancap.core import random_channel, tensor
from qchancap.ea import c_ea

ADDITIVE_HOLEVO = {
    "depolarizing": depolarizing(0.3),  # unital
    "dephasing": dephasing(0.25),  # unital
    "bsc_embed": bsc_embed(0.11),  # entanglement-breaking
}
OTHER = {"amplitude_damping": amplitude_damping(0.3)}
OTHER.update({f"random{i}": random_channel(np.random.default_rng([5, i]), 2, 2, 2 + i % 2)
              for i in range(4)})
CHANNELS = {**ADDITIVE_HOLEVO, **OTHER}


@pytest.mark.parametrize("name", CHANNELS)
def test_entanglement_assisted_capacity_is_additive(name):
    ch = CHANNELS[name]
    one, two = c_ea(ch), c_ea(tensor(ch, ch))
    assert one.status == "converged" and two.status == "converged"
    assert abs(two.value - 2 * one.value) <= 1e-9


@pytest.mark.parametrize("name", CHANNELS)
def test_holevo_capacity_of_two_uses(name):
    ch = CHANNELS[name]
    one, two = c1inf(C1InfProblem(ch)), c1inf(C1InfProblem(tensor(ch, ch)))
    assert one.status == "converged" and two.status == "converged"
    if name in ADDITIVE_HOLEVO:
        assert abs(two.value - 2 * one.value) <= 1e-9
    else:
        assert two.value >= 2 * one.value - 1e-9
