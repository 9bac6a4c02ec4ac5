"""End to end over random rank-2 arrangements: the ring against the oracle.

Each case draws curves {chi = k/97} on the square's torus, for primitive
characters chi with entries in [-2, 2] at one or two translations each,
repairs the square fan with `search_good_fan` (a case that exhausts its
budget is skipped) and builds the model of the whole poset.  Its Hilbert
function must equal the blow-up Betti oracle with no torsion, and every
nested+ stratum must have rank one in its top degree.
"""

import itertools
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from wondertoric.building import building_set, nested_plus_sets
from wondertoric.errors import BudgetExhausted
from wondertoric.fans import fan, search_good_fan
from wondertoric.layers import build_layer_poset, layer
from wondertoric.oracle import betti_of, strip_zeros
from wondertoric.present import Model, hilbert_function, model_ideal, nested_set, stratum_ideal, stratum_size

SQUARE = fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (0, 3), (1, 2), (1, 3)])
CHARACTERS = [c for c in itertools.product(range(-2, 3), repeat=2) if gcd(*c) == 1 and c > (0, 0)]


@st.composite
def rank2_arrangements(draw):
    chars = draw(st.lists(st.sampled_from(CHARACTERS), min_size=1, max_size=3, unique=True))
    out = []
    for chi in chars:
        ks = draw(st.lists(st.integers(0, 96), min_size=1, max_size=2, unique=True))
        out += [layer([chi], [Fraction(k, 97)], 2) for k in ks]
    return out


@settings(max_examples=25, deadline=None)
@given(arrangement=rank2_arrangements())
def test_random_rank2_models_match_the_oracle(arrangement):
    poset = build_layer_poset(arrangement)
    try:
        f, _ = search_good_fan(SQUARE, [e.gamma for e in poset.elements])
    except BudgetExhausted:
        return
    building = building_set(poset)
    model = Model(f, building)
    ranks, torsion = hilbert_function(model_ideal(model))
    assert strip_zeros(ranks) == betti_of(model)
    assert not any(torsion)
    for members, rays in nested_plus_sets(building, f):
        pres = stratum_ideal(model, nested_set(members, rays))
        ranks, _ = hilbert_function(pres)
        assert ranks[2 - stratum_size(pres)] == 1
