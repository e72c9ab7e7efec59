"""Quasi-Monte-Carlo sampling of the feasible design space.

The paper draws 10 000 design points with Sobol QMC [14].  To respect the
inequality constraints R1 > R2 and R3 > R4 while keeping the low-discrepancy
structure, sampling happens in the *reduced* space
[R1, R3, R5, W, L, k1, k2] (the same parameterization the pNN later learns,
Fig. 5) and the full ω vectors are assembled with R2 = k1·R1, R4 = k2·R3.

The Sobol generator is in-repo and numpy-only.  It uses the Joe & Kuo
direction numbers (S. Joe and F. Y. Kuo, "Constructing Sobol sequences with
better two-dimensional projections", SIAM J. Sci. Comput. 30, 2008) for the
seven dimensions it needs, 30-bit integers, and Owen-style randomization by
a left linear matrix scramble (LMS) followed by a digital random shift
(J. Matoušek, "On the L2-discrepancy for anchored boxes", J. Complexity 14,
1998).  Both scramble draws come from ``np.random.default_rng(seed)`` in the
order ``scipy.stats.qmc.Sobol`` uses, so for an integer seed the points are
bitwise equal to ``qmc.Sobol(d=7, seed=seed).random_base2(m)`` followed by
``qmc.scale`` (pinned by ``tests/surrogate/test_sampling.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.surrogate.design_space import DESIGN_SPACE, DesignSpace

#: Integer resolution of the generator: at most ``2**_BITS`` points.
_BITS = 30

#: Joe–Kuo primitive polynomials (``a`` coefficients with the leading term,
#: degree = bit length − 1) and initial direction numbers m_1..m_s for
#: dimensions 1–7.  Dimension 1 is the van der Corput sequence.
_POLY = (1, 3, 7, 11, 13, 19, 25)
_M_INIT = ((), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3), (1, 3, 5, 13))


def _direction_numbers() -> np.ndarray:
    """Unscrambled direction numbers ``v[dim, j]`` as ``_BITS``-bit integers.

    Bratley & Fox's recurrence (ACM TOMS Algorithm 659) over the initial
    numbers, then column ``j`` is scaled by ``2**(_BITS - 1 - j)``.
    """
    v = np.ones((len(_POLY), _BITS), dtype=np.int64)
    for dim in range(1, len(_POLY)):
        poly, degree = _POLY[dim], _POLY[dim].bit_length() - 1
        row = list(_M_INIT[dim])
        for j in range(degree, _BITS):
            new = row[j - degree]
            for k in range(degree):
                if (poly >> (degree - 1 - k)) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v[dim] = row
    return v << (_BITS - 1 - np.arange(_BITS))


_DIRECTIONS = _direction_numbers()


def _scramble(directions: np.ndarray, rng: np.random.Generator):
    """LMS + digital shift: ``(shift (d,), scrambled directions (d, bits))``.

    Draw order is the shift bits ``(d, bits)``, then the lower-triangular
    matrices ``(d, bits, bits)`` (unit diagonal forced).  Each direction
    number, read MSB first as a bit vector, is multiplied by its
    dimension's matrix over GF(2).
    """
    d, bits = directions.shape
    powers = np.arange(bits)
    shift_bits = rng.integers(2, size=(d, bits), dtype=np.uint32).astype(np.int64)
    shift = (shift_bits << powers).sum(axis=1)
    ltm = np.tril(rng.integers(2, size=(d, bits, bits), dtype=np.uint32)).astype(np.int64)
    ltm[:, powers, powers] = 1
    msb_first = bits - 1 - powers
    v_bits = (directions[:, :, None] >> msb_first) & 1              # (d, j, i)
    scrambled_bits = (v_bits @ ltm.transpose(0, 2, 1)) & 1           # (d, j, p)
    return shift, (scrambled_bits << msb_first).sum(axis=2)


def sobol_unit(
    n_points: int, seed: Optional[int] = 0, scramble: bool = True
) -> np.ndarray:
    """The first ``n_points`` 7-D Sobol points in ``[0, 1)``, Gray-code order.

    Point ``k`` is the shift XOR the direction numbers selected by the
    bits of ``k ^ (k >> 1)``, so point 0 is the shift itself.
    """
    if n_points > 1 << _BITS:
        raise ValueError(f"at most 2**{_BITS} Sobol points can be drawn")
    directions = _DIRECTIONS
    shift = np.zeros(len(_POLY), dtype=np.int64)
    if scramble:
        shift, directions = _scramble(directions, np.random.default_rng(seed))
    index = np.arange(n_points, dtype=np.int64)
    gray = index ^ (index >> 1)
    quasi = np.broadcast_to(shift, (n_points, len(shift))).copy()
    for bit in range(max(1, int(n_points - 1).bit_length())):
        quasi ^= ((gray >> bit) & 1)[:, None] * directions[:, bit]
    return quasi * (1.0 / (1 << _BITS))


def sample_design_points(
    n_points: int,
    space: DesignSpace = DESIGN_SPACE,
    seed: Optional[int] = 0,
    scramble: bool = True,
) -> np.ndarray:
    """Draw ``n_points`` feasible ω vectors with Sobol QMC.

    Returns
    -------
    omega:
        Array of shape ``(n_points, 7)``; every row satisfies
        :meth:`DesignSpace.contains`.
    """
    if n_points < 1:
        raise ValueError("n_points must be positive")
    # The prefix of a power-of-two Sobol draw, truncated to n_points (the
    # balance properties are those of the enclosing 2**m design).
    unit = sobol_unit(n_points, seed=seed, scramble=scramble)
    lower, upper = space.reduced_lower, space.reduced_upper
    reduced = unit * (upper - lower) + lower
    omega = space.assemble(reduced)
    return np.atleast_2d(omega)
