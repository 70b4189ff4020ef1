import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bcsi.probability import Alphabet, AuxScheme, Channel, JointPmf


def swap_receivers(ch):
    """ch with its two receivers exchanged."""
    return Channel(ch.x, Alphabet.indexed("Y1", ch.y2.size), Alphabet.indexed("Y2", ch.y1.size),
                   np.swapaxes(ch.kernel, 1, 2))


def csiszar_sum_check(j, t, a, b):
    """Both sides (lhs, rhs) of the Csiszar sum identity for axis-name lists,
    by the library's conditional mutual information:
    sum_i I(A^{i-1}; B_i | T, B_{i+1}^n) = sum_i I(B_{i+1}^n; A_i | T, A^{i-1})."""
    from bcsi.info_measures import conditional_mutual_information as cmi

    return (sum(cmi(j, a[:i], [b[i]], t + b[i + 1:]) for i in range(len(a))),
            sum(cmi(j, b[i + 1:], [a[i]], t + a[:i]) for i in range(len(a))))


def random_channel(rng, x_size, y1_size, y2_size):
    rows = rng.random((x_size, y1_size * y2_size)) + 0.05
    rows /= rows.sum(axis=1, keepdims=True)
    return Channel.from_rows([r.tolist() for r in rows], x_size, y1_size, y2_size)


def random_generic_channel(rng, x_size, y1_size, y2_size, floor=0.02):
    """Random channel in generic position: both receivers carry at least
    `floor` bits at uniform input. Near-singular draws (an output nearly
    independent of the input) collapse distinct facets of the regions into
    ties, where minimal representations stop being unique."""
    from bcsi.info_measures import mutual_information
    from bcsi.probability import JointPmf

    while True:
        ch = random_channel(rng, x_size, y1_size, y2_size)
        joint = JointPmf((ch.x, ch.y1, ch.y2), ch.kernel / x_size)
        if mutual_information(joint, ("X",), ("Y1",)) >= floor and \
                mutual_information(joint, ("X",), ("Y2",)) >= floor:
            return ch


def random_joint(rng, sizes, names=None):
    m = rng.random(sizes) + 0.02
    m /= m.sum()
    if names is None:
        names = [f"A{i}" for i in range(len(sizes))]
    axes = tuple(Alphabet.indexed(n, s) for n, s in zip(names, sizes))
    return JointPmf(axes, m)


def random_scheme(rng, sizes, x_size):
    aux = random_joint(rng, sizes, names=("U0", "U1", "U2"))
    gamma = rng.integers(0, x_size, size=sizes)
    return AuxScheme(aux, gamma)


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)
