"""`hypothesis` strategies for random dominant weights under a small cap."""
from __future__ import annotations

from functools import lru_cache

from hypothesis import strategies as st

from liefusion.affine import admissible_weights
from liefusion.highmod import weyl_dimension
from liefusion.rootsys import AlgebraId, Weight
from liefusion.verify import SWEEP_TYPES, weights_under_cap

SMALL_CAP = 64
TYPES = tuple(AlgebraId(s, n) for s, n in SWEEP_TYPES)


@lru_cache(maxsize=None)
def _small_weights(aid: AlgebraId) -> tuple:
    return tuple(f for _, f in weights_under_cap(aid, SMALL_CAP))


@st.composite
def dominant_weights(draw, aid=None) -> Weight:
    """A dominant integral weight of dim <= SMALL_CAP, of aid or a sweep type."""
    aid = aid or draw(st.sampled_from(TYPES))
    return Weight.from_fundamental(aid, draw(st.sampled_from(_small_weights(aid))))


@st.composite
def dominant_pairs(draw) -> tuple:
    """(lam, mu): two dominant integral weights of one algebra, dim <= SMALL_CAP."""
    aid = draw(st.sampled_from(TYPES))
    return draw(dominant_weights(aid)), draw(dominant_weights(aid))


@lru_cache(maxsize=None)
def _small_admissibles(aid: AlgebraId, level: int) -> tuple:
    return tuple(w.finite_part for w in admissible_weights(aid, level)
                 if weyl_dimension(w.finite_part) <= SMALL_CAP)


@st.composite
def admissible_pairs(draw) -> tuple:
    """(lam, mu, level): two admissible finite parts of dim <= SMALL_CAP, level 1-3."""
    aid = draw(st.sampled_from(TYPES))
    level = draw(st.integers(1, 3))
    weights = _small_admissibles(aid, level)
    return draw(st.sampled_from(weights)), draw(st.sampled_from(weights)), level
