"""The scalar fundamental-domain reduction: one point, one side at a time.

The reference that surface._reduce_ensemble, and with it surface.locate, is
tested against.  A point z lies in the closed octagon iff it satisfies the
Dirichlet inequalities S_j(z) >= 0 for the eight neighbor centers q_j, up
to the kernel's tie slack.
"""

from hyplyap.hypgeo import DiscPoint
from hyplyap.surface import _SIDE_TOL, DeckWord, SurfaceError

_MAX_REDUCTION_STEPS = 10**6


def side_violations(group, z: complex):
    """S_j(z) = |z - q_j|^2 - |z|^2 (1 - |q_j|^2) for the 8 sides."""
    zz = abs(z) ** 2
    return [abs(z - q) ** 2 - zz * (1.0 - abs(q) ** 2) for q in group.neighbors]


def contains(group, z: complex) -> bool:
    return min(side_violations(group, z)) >= -_SIDE_TOL


def first_violated_side(group, z: complex):
    """Smallest side index whose Dirichlet inequality z violates, or None."""
    for j, s in enumerate(side_violations(group, z), start=1):
        if s < -_SIDE_TOL:
            return j
    return None


def scalar_locate(z, group):
    """(representative, word) as surface.locate returns them, moving the
    point across its smallest violated side until none is violated."""
    w = z.z if isinstance(z, DiscPoint) else complex(z)
    letters = []
    for _ in range(_MAX_REDUCTION_STEPS):
        j = first_violated_side(group, w)
        if j is None:
            return DiscPoint(w.real, w.imag), DeckWord(tuple(letters))
        letter = group.neighbor_letter(j)
        w = group.generator(-letter)(w)
        letters.append(letter)
    raise SurfaceError("fundamental-domain reduction did not terminate")
