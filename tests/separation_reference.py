"""The random orbit-separation harness that `polinv.polarization` once
shipped, kept as a reference for the tests (AC-4): points in distinct orbits
of a finite group, found by enumerating the group, must be told apart by
some generator, and points in one orbit must not be.  No command runs it.

Points move by the left-action convention of `polinv.groups.act`, block by
block: (g.p)(v) = p(g^{-1} v), so `point_image(g)` undoes g^{-1}.
"""

import random
from typing import Sequence

from polinv.groups import DiagonalAction, Element, MatrixGroup
from polinv.limits import DEFAULT_SEED, frozen
from polinv.linalg import Matrix, frac
from polinv.poly import VariableLayout
from polinv.polarization import GeneratorSet


def point_image(g: Element, v: Sequence, layout: VariableLayout) -> tuple:
    """g v on every block of the layout: a signed remap of the coordinates
    for a (perm, signs) pair, `Matrix @` on each block's column for a matrix."""
    m = layout.vars_per_block
    if isinstance(g, Matrix):
        return tuple(x for base in range(0, layout.total, m)
                     for x in (g @ Matrix.from_rows([[c] for c in v[base:base + m]])).entries)
    perm, signs = g
    image = [0] * layout.total
    for base in range(0, layout.total, m):
        for j in range(m):
            image[base + perm[j]] = v[base + j] if signs[j] > 0 else -v[base + j]
    return tuple(image)


def same_orbit(v: Sequence, w: Sequence, action: DiagonalAction) -> bool:
    """True when some group element maps v to w, blockwise matrix action."""
    total = action.layout.total
    if len(v) != total or len(w) != total:
        raise ValueError("vector length does not match layout")
    v = [frac(x) for x in v]
    w = tuple(frac(x) for x in w)
    return any(point_image(g, v, action.layout) == w for g in action.group.elements)


@frozen
class SeparationReport:
    seed: int
    trials: int
    pairs_tested: int
    separated: int
    controls_tested: int
    controls_agreeing: int
    failures: tuple

    @property
    def all_separated(self) -> bool:
        return self.separated == self.pairs_tested and not self.failures


def separation_test(group: MatrixGroup, gens: GeneratorSet, trials: int = 200,
                    seed: int = DEFAULT_SEED, controls: int = 20) -> SeparationReport:
    """Check that points in distinct orbits are told apart by some generator.

    Draws `trials` random integer point pairs verified (by enumeration) to lie
    in distinct orbits and records any pair on which every generator agrees.
    Also draws same-orbit control pairs, on which every generator must agree.
    """
    rng = random.Random(seed)
    layout = gens.layout
    action = DiagonalAction(group, layout)
    total = layout.total
    polys = [p for p, _ in gens.generators]

    def draw_point():
        return tuple(rng.randint(-9, 9) for _ in range(total))

    failures = []
    separated = 0
    tested = 0
    while tested < trials:
        v, w = draw_point(), draw_point()
        if same_orbit(v, w, action):
            continue
        tested += 1
        if any(p.evaluate(v) != p.evaluate(w) for p in polys):
            separated += 1
        else:
            failures.append((v, w))

    controls_agree = 0
    for _ in range(controls):
        v = draw_point()
        w = point_image(group.elements[rng.randrange(group.order)], v, layout)
        if all(p.evaluate(v) == p.evaluate(w) for p in polys):
            controls_agree += 1
    return SeparationReport(seed, trials, tested, separated, controls, controls_agree,
                            tuple(failures))
