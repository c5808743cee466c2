"""The compact genus-2 surface as a quotient of the disc.

The fundamental domain is the regular octagon centered at 0 with interior
angle pi/4 at every vertex; opposite sides are identified by hyperbolic
translations.  Side k (1-based, outward direction (k-1)*pi/4) is mapped onto
side k+4 by generator g_k, and g_{k+4} = g_k^{-1}.  Reduction into the
domain works off the Dirichlet inequalities dist(z, 0) <= dist(z, g(0)) for
the eight neighbor translates g(0).

Homotopy classes need no crossing detection: the disc is simply connected,
so every lifted path from a point of tile gamma_0(F) to a point of tile
gamma_1(F) is homotopic rel endpoints to any other, and its deck word is
gamma_1 gamma_0^{-1}, read off the two endpoint tiles by `locate`.

This module is also the geometry layer of the vectorized ensemble engine:
`_reduce_ensemble` pulls an array of walkers into the octagon and emits
each round's deck letters to an accumulator (the algebra layer,
`cocycle._MatrixAccumulator`).  `locate` is its one-point case.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .hypgeo import (
    DiscPoint,
    MobiusMap,
    mobius_identity,
    mobius_point_chart,
    mobius_translation,
)

__all__ = [
    "DeckWord",
    "FuchsianGroup",
    "SurfaceError",
    "build_genus2",
    "locate",
    "track",
]

# membership slack: points within this of a side count as inside, ties
# resolved by the smallest side index
_SIDE_TOL = 1e-12

# rounds of _reduce_ensemble before it gives up
_MAX_ENSEMBLE_ROUNDS = 64


class SurfaceError(RuntimeError):
    """Geometry bug guard: reduction failed to terminate."""


def reduce_letters(letters) -> tuple:
    """Freely reduce a letter sequence, cancelling adjacent (k, -k) pairs."""
    out = []
    for l in letters:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(int(l))
    return tuple(out)


@dataclass(frozen=True)
class DeckWord:
    """Reduced sequence of signed generator indices; leftmost letter is the
    outermost map, so evaluate([2, 1]) = g2 o g1."""

    letters: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", reduce_letters(self.letters))
        for l in self.letters:
            if not (1 <= abs(l) <= 4):
                raise ValueError(f"letter {l} outside the canonical range 1..4")

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other: "DeckWord") -> "DeckWord":
        """Concatenation: (self * other) evaluates to self o other."""
        return DeckWord(self.letters + other.letters)

    def inverse(self) -> "DeckWord":
        return DeckWord(tuple(-l for l in reversed(self.letters)))

    def evaluate(self, group: "FuchsianGroup") -> MobiusMap:
        m = mobius_identity()
        for l in self.letters:
            m = m * group.generator(l)
        return m


@dataclass(frozen=True)
class FuchsianGroup:
    """Side-pairing data of the genus-2 octagon group."""

    generators: list          # 8 MobiusMap, g1..g8 with g_{k+4} = g_k^-1
    circumradius: float
    inradius: float = field(repr=False, default=0.0)
    neighbors: tuple = field(repr=False, default=())   # q_j = hat_g_j(0), complex
    relator: DeckWord = field(repr=False, default_factory=DeckWord)

    def generator(self, letter: int) -> MobiusMap:
        """Generator for a signed letter: +k -> g_k, -k -> g_k^{-1}."""
        if letter > 0:
            return self.generators[letter - 1]
        return self.generators[-letter + 3]

    def neighbor_letter(self, side: int) -> int:
        """Signed letter of the map hat_g_side with hat_g_side(F) the
        neighbor tile across `side` (1-based)."""
        j = side + 4 if side <= 4 else side - 4
        return j if j <= 4 else -(j - 4)

    @cached_property
    def _layout(self) -> "_GroupData":
        """The group's constants laid out for `_reduce_ensemble`, built once."""
        return _GroupData(self)

    def relator_residual(self) -> float:
        """Distance of the relator image from +-identity in coefficients."""
        m = self.relator.evaluate(self)
        return min(abs(m.a - 1.0) + abs(m.b), abs(m.a + 1.0) + abs(m.b))

    def export_text(self) -> str:
        """Coefficient dump of the 8 generators, 17 significant digits."""
        lines = ["# generator a_re a_im b_re b_im"]
        for k, g in enumerate(self.generators, start=1):
            lines.append(
                f"g{k} {g.a.real:.17g} {g.a.imag:.17g} {g.b.real:.17g} {g.b.imag:.17g}"
            )
        return "\n".join(lines) + "\n"


def _locate_all(points, group: FuchsianGroup):
    """(representatives, words) of `locate` for every point, in one call of
    the reduction kernel; the representatives are a complex array."""
    z = np.array([p.z if isinstance(p, DiscPoint) else complex(p) for p in points])
    log = _LetterLog(group._layout, z.size)
    _reduce_ensemble(group._layout, z, acc=log)
    return z, [DeckWord(tuple(letters)) for letters in log.letters]


def locate(z, group: FuchsianGroup):
    """Reduce a disc point into the fundamental octagon.

    Returns (representative, word) with z = word.evaluate(group)(rep) and the
    representative inside the closed domain.  Deterministic: violated sides
    are processed in increasing index order.
    """
    reps, words = _locate_all([z], group)
    return DiscPoint(reps[0].real, reps[0].imag), words[0]


def track(path, group: FuchsianGroup) -> DeckWord:
    """Deck word of a lifted path's homotopy class rel endpoints.

    Read off the endpoint tiles: with start in gamma_0(F) and end in
    gamma_1(F), the word is gamma_1 gamma_0^{-1}.  This is exact: the disc
    is simply connected, so all lifted paths between two points are
    homotopic rel endpoints, and the points in between never matter.  Hence
    track(head + tail) = track(tail) * track(head) as reduced words.
    """
    points = path.points
    if not points:
        return DeckWord()
    _, (start_word, end_word) = _locate_all([points[0], points[-1]], group)
    return end_word * start_word.inverse()


class _GroupData:
    """Group constants laid out for vectorized reduction: for each side j,
    the neighbor center q_j, the signed letter a crossing of side j reports,
    and the coefficients of the map that pulls a walker back across it."""

    def __init__(self, group: FuchsianGroup):
        q = np.array(group.neighbors)
        self.q_col = q[:, None]
        self.one_minus_qa_col = (1.0 - np.abs(q) ** 2)[:, None]
        self.letters = [group.neighbor_letter(j) for j in range(1, 9)]
        maps = [group.generator(-letter) for letter in self.letters]
        a = np.array([m.a for m in maps])
        b = np.array([m.b for m in maps])
        # rows a, b, conj(b), conj(a) of z -> (a z + b) / (conj(b) z + conj(a))
        self.coef = np.array([a, b, np.conj(b), np.conj(a)])
        # no point of the inscribed disc violates a side: with Q = |q_j|,
        # min_j S_j = Q^2 (1 + r^2) - 2 Q r >= 0 for |z| = r <= tanh(inradius/2)
        self.inner_r = math.tanh(0.5 * group.inradius)


def _reduce_ensemble(data: _GroupData, z, alpha=None, acc=None, skip_r=None):
    """Pull every walker with |z| > skip_r into the fundamental octagon, in
    place; skip_r defaults to the inscribed disc's radius, i.e. all walkers.

    Each round moves every walker that violates a side across its smallest
    violated side in one vectorized Mobius update, transports the direction
    angles when given, and reports the (side index, walker index) arrays of
    the round to acc.apply.  After the first round only the walkers that
    moved are tested.
    """
    idx = np.flatnonzero(np.abs(z) > (data.inner_r if skip_r is None else skip_r))
    if idx.size == 0:
        return
    for _ in range(_MAX_ENSEMBLE_ROUNDS):
        w = z[idx]
        S = np.abs(w - data.q_col) ** 2 - np.abs(w) ** 2 * data.one_minus_qa_col
        violated = S < -_SIDE_TOL
        moved = violated.any(axis=0)
        idx = idx[moved]
        if idx.size == 0:
            return
        w = w[moved]
        first = violated[:, moved].argmax(axis=0)
        a, b, conj_b, conj_a = data.coef[:, first]
        den = conj_b * w + conj_a
        z[idx] = (a * w + b) / den
        if alpha is not None:
            alpha[idx] -= 2.0 * np.arctan2(den.imag, den.real)
        if acc is not None:
            acc.apply(first, idx)
    raise SurfaceError("fundamental-domain reduction did not settle")


class _LetterLog:
    """Accumulator that records each walker's letters in crossing order."""

    def __init__(self, data: _GroupData, n: int):
        self.side_letters = data.letters
        self.letters = [[] for _ in range(n)]

    def apply(self, first, idx):
        for j, k in zip(first.tolist(), idx.tolist()):
            self.letters[k].append(self.side_letters[j])


def _derive_relator(group: FuchsianGroup) -> DeckWord:
    """Vertex-cycle relator, read off numerically by probing the eight tiles
    around the vertex at angle pi/8."""
    c = group.circumradius
    vertex = math.tanh(0.5 * c) * cmath.exp(1j * math.pi / 8.0)
    chart = mobius_point_chart(DiscPoint(vertex.real, vertex.imag))
    inward = cmath.phase(-vertex)
    eps = math.tanh(0.5 * 0.05)
    # clockwise probes, one per tile in the vertex star
    probes = [chart(eps * cmath.exp(1j * (inward - i * math.pi / 4.0))) for i in range(9)]
    _, words = _locate_all(probes, group)
    tiles = [word.evaluate(group) for word in words]
    relator_letters = []
    for i in range(8):
        # gamma_{i+1} = gamma_i o n_i; adjacent tiles share a side, so the
        # step element n_i must be one of the eight generators
        step = tiles[i].inverse() * tiles[i + 1]
        letter = None
        for cand in (1, 2, 3, 4, -1, -2, -3, -4):
            gc = group.generator(cand)
            err = min(
                abs(step.a - gc.a) + abs(step.b - gc.b),
                abs(step.a + gc.a) + abs(step.b + gc.b),
            )
            if err < 1e-9:
                letter = cand
                break
        if letter is None:
            raise SurfaceError(f"vertex walk step {i} is not a single generator")
        relator_letters.append(letter)
    word = DeckWord(tuple(relator_letters))
    if len(word.letters) != 8:
        raise SurfaceError(f"vertex cycle reduced unexpectedly: {word.letters}")
    return word


def build_genus2() -> FuchsianGroup:
    """Construct the octagon group.

    The circumradius is the unique root of the vertex-angle condition
    (interior angle pi/4), c = acosh(cot^2(pi/8)); the inradius follows as
    acosh(cot(pi/8)) and every side pairing is a translation of length twice
    the inradius.
    """
    cot = 1.0 / math.tan(math.pi / 8.0)
    circumradius = math.acosh(cot * cot)
    inradius = math.acosh(cot)

    generators = []
    for k in range(1, 5):
        # g_k maps side k onto side k+4: translate along the inward axis
        direction = (k - 1) / 8.0 + 0.5
        generators.append(mobius_translation(direction, 2.0 * inradius))
    for k in range(4):
        generators.append(generators[k].inverse())

    neighbors = tuple(
        math.tanh(inradius) * cmath.exp(1j * (j - 1) * math.pi / 4.0) for j in range(1, 9)
    )
    group = FuchsianGroup(
        generators=generators,
        circumradius=circumradius,
        inradius=inradius,
        neighbors=neighbors,
    )
    relator = _derive_relator(group)
    return FuchsianGroup(
        generators=generators,
        circumradius=circumradius,
        inradius=inradius,
        neighbors=neighbors,
        relator=relator,
    )
