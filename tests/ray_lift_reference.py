"""The word-by-word ray lift: one DeckWord and one MobiusMap per ray and step.

The reference that validate._ray_lift_error, which lifts the rays through
surface._DeckMaps' coefficient pairs in one array pass, is tested against.
After every step of lyapunov._ray_walk each ray's recorded letters are
evaluated as a DeckWord, and the map takes the reduced point back to the
disc and turns its direction by -2 arg(conj(b) w + conj(a)).
"""

import cmath
import math

import numpy as np

from hyplyap.hypgeo import dist_P
from hyplyap.lyapunov import _REDUCE_EVERY, _ray_walk
from hyplyap.surface import DeckWord, _LetterLog


def reference_ray_lift(group, thetas, R):
    """(worst position error, worst direction error, lifted points): the
    errors as _ray_lift_error defines them, and the lifted points as a
    (steps, rays) complex array."""
    thetas = np.asarray(thetas, dtype=float)
    log = _LetterLog(group._layout, thetas.size)
    exact = np.exp(2j * np.pi * thetas)
    worst_z = worst_dir = 0.0
    lifted = []
    walk = _ray_walk(group._layout, log, thetas, R, _REDUCE_EVERY)
    for k, (w, alpha) in enumerate(walk, start=1):
        r = min(k * _REDUCE_EVERY, R)
        row = []
        for letters, z, a, e in zip(log.letters, w.tolist(), alpha.tolist(), exact.tolist()):
            m = DeckWord(tuple(letters)).evaluate(group)
            turn = -2.0 * cmath.phase(m.b.conjugate() * z + m.a.conjugate())
            row.append(m(z))
            worst_z = max(worst_z, dist_P(row[-1], math.tanh(0.5 * r) * e))
            worst_dir = max(worst_dir, abs(cmath.exp(1j * (a + turn)) - e))
        lifted.append(row)
    return worst_z, worst_dir, np.array(lifted)
