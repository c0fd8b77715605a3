"""Property tests over random nested compositions of the catalog.

Each example is a base entry wrapped, up to a few levels deep, in scale,
shift, tilt and SeparableSum.  The properties are the identities every proper
convex lsc functional satisfies, checked on the composed entry as a whole:
the Moreau decomposition through its own conjugate, firm nonexpansiveness of
its prox, the JSON round trip, and the Fenchel-Young inequality.  Runs are
derandomized so that the suite is the same on every run.
"""

import json

import numpy as np
import numpy.testing as npt
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from proxkit.functionals import (  # noqa: E402
    BoxIndicator,
    BoxSupport,
    InfBallIndicator,
    L1,
    L2BallIndicator,
    L2Norm,
    SeparableSum,
    SquaredL2,
    Zero,
    fenchel_young_gap,
    functional_from_json,
    functional_to_json,
    scale,
    shift,
    tilt,
)

N = 3
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
POSITIVE = st.floats(0.25, 4.0)


def _vectors(n):
    return st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n).map(np.array)


def _catalog(n):
    """Random catalog entries on R^n: a base kind under nested combinators."""
    boxes = st.tuples(_vectors(n), _vectors(n)).map(
        lambda lh: (np.minimum(*lh) - 0.1, np.maximum(*lh) + 0.1)
    )
    base = st.one_of(
        st.sampled_from([Zero(), SquaredL2(), L1(), L2Norm()]),
        boxes.map(lambda b: BoxIndicator(*b)),
        boxes.map(lambda b: BoxSupport(*b)),
        POSITIVE.map(InfBallIndicator),
        POSITIVE.map(L2BallIndicator),
    )
    if n > 1:
        base = st.one_of(base, st.lists(_catalog(1), min_size=n, max_size=n).map(SeparableSum))

    def wrapped(inner):
        return st.one_of(
            st.tuples(inner, POSITIVE).map(lambda t: scale(*t)),
            st.tuples(inner, _vectors(n)).map(lambda t: shift(*t)),
            st.tuples(inner, _vectors(n)).map(lambda t: tilt(*t)),
        )

    return st.recursive(base, wrapped, max_leaves=4)


@PROPERTY
@given(_catalog(N), POSITIVE, _vectors(N))
def test_moreau_decomposition_through_the_conjugate(f, gamma, x):
    # x = prox_{gamma f}(x) + gamma * prox_{f*/gamma}(x/gamma)
    p = f.prox(gamma, x)
    q = f.conjugate().prox(1.0 / gamma, x / gamma)
    npt.assert_allclose(p + gamma * q, x, rtol=0, atol=1e-9 * (1.0 + np.abs(x).max()))


@PROPERTY
@given(_catalog(N), POSITIVE, _vectors(N), _vectors(N))
def test_prox_is_firmly_nonexpansive(f, gamma, x, y):
    d = f.prox(gamma, x) - f.prox(gamma, y)
    assert d @ d <= d @ (x - y) + 1e-12 * (1.0 + (x - y) @ (x - y))


@PROPERTY
@given(_catalog(N), POSITIVE, _vectors(N))
def test_json_round_trip(f, gamma, x):
    g = functional_from_json(json.loads(json.dumps(functional_to_json(f))))
    assert g.structurally_equal(f)
    npt.assert_array_equal(g.prox(gamma, x), f.prox(gamma, x))


@PROPERTY
@given(_catalog(N), _vectors(N), _vectors(N))
def test_fenchel_young_inequality(f, u, y):
    x = f.prox(1.0, u)  # a point of the domain
    assert fenchel_young_gap(f, x, y) >= 0.0
    assert fenchel_young_gap(f, x, u - x) >= 0.0  # u - x is a subgradient at x
