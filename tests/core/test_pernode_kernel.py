"""Differential tests for the per-node Algorithm 1 round kernel.

:func:`repro.core.synchronous.pernode_round` (compact dtypes, 0/1
blends, higher sample only) must produce exactly the values of the
earlier ``np.where`` formulation, kept below as the oracle, on the
unsharded call shape and the shard worker's slice shape alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.schedule import FixedSchedule
from repro.core.synchronous import (
    PerNodeSynchronousSim,
    pernode_matrix,
    pernode_round,
    pernode_state_dtype,
)


def where_step(generations, colors, first, second, own_gens, own_cols, two_choices_step, active):
    """The ``np.where`` update the kernel replaced, verbatim (the oracle)."""
    gen_a, col_a = generations[first], colors[first]
    gen_b, col_b = generations[second], colors[second]
    # Order so sample "a" is the higher-generation one (ties keep order).
    swap = gen_b > gen_a
    gen_a, gen_b = np.where(swap, gen_b, gen_a), np.where(swap, gen_a, gen_b)
    col_a, col_b = np.where(swap, col_b, col_a), np.where(swap, col_a, col_b)
    if two_choices_step:
        two_choices = (gen_a == gen_b) & (col_a == col_b) & (own_gens <= gen_a)
    else:
        two_choices = np.zeros(own_gens.size, dtype=bool)
    propagation = ~two_choices & (gen_a > own_gens)
    if active is not None:
        two_choices &= active
        propagation &= active
    new_generations = np.where(
        two_choices, gen_a + 1, np.where(propagation, gen_a, own_gens)
    )
    adopt = two_choices | propagation
    return new_generations, np.where(adopt, col_a, own_cols)


def random_state(rng, n, rows, k, dtype):
    # Values crowd the top of each range: ties (and so two-choices
    # promotions) are frequent, and the promoted generation rows - 1 and
    # the largest color sit at the dtype's edge.
    generations = rng.integers(max(0, rows - 5), rows - 1, size=n).astype(dtype)
    colors = rng.integers(max(0, k - 3), k, size=n).astype(dtype)
    return generations, colors


# (rows, k, expected dtype): int8 up to its boundary, then wide state
# forced by the generation count and by the color count.
SHAPES = [(10, 8, np.int8), (126, 8, np.int8), (127, 8, np.int16), (10, 127, np.int16)]


@pytest.mark.parametrize("rows,k,dtype", SHAPES)
@pytest.mark.parametrize("two_choices", [False, True])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("sliced", [False, True])
def test_matches_where_oracle(rows, k, dtype, two_choices, masked, sliced):
    assert pernode_state_dtype(rows, k) == dtype
    rng = np.random.default_rng([rows, k, two_choices, masked, sliced])
    n = 3000
    generations, colors = random_state(rng, n, rows, k, dtype)
    start, stop = (700, 2100) if sliced else (0, n)
    size = stop - start
    first = rng.integers(n, size=size)
    second = rng.integers(n, size=size)
    active = rng.random(size) < 0.7 if masked else None
    own_g, own_c = generations[start:stop], colors[start:stop]
    before = generations.copy(), colors.copy()

    new_g, new_c = pernode_round(
        generations, colors, first, second, own_g, own_c, two_choices, active
    )
    wide_g, wide_c = generations.astype(np.int64), colors.astype(np.int64)
    want_g, want_c = where_step(
        wide_g, wide_c, first, second, wide_g[start:stop], wide_c[start:stop],
        two_choices, active,
    )

    assert new_g.dtype == dtype and new_c.dtype == dtype
    np.testing.assert_array_equal(new_g, want_g)
    np.testing.assert_array_equal(new_c, want_c)
    # The kernel only reads its inputs (the shard worker passes views of
    # shared state that other workers are still reading).
    np.testing.assert_array_equal(generations, before[0])
    np.testing.assert_array_equal(colors, before[1])
    # The oracle's edge cases actually occur in this state.
    if two_choices:
        assert (want_g == wide_g[start:stop] + 1).any()
    assert (want_c != wide_c[start:stop]).any()


def test_state_dtype_boundaries():
    assert pernode_state_dtype(2, 2) == np.int8
    assert pernode_state_dtype(32766, 3) == np.int16
    assert pernode_state_dtype(3, 32767) == np.int32
    assert pernode_state_dtype(2**31, 2) == np.int64


def test_simulator_state_is_compact():
    schedule = FixedSchedule(n=500, k=4, alpha0=2.0)
    sim = PerNodeSynchronousSim(np.array([200, 100, 100, 100]), schedule, np.random.default_rng(1))
    assert sim.generations.dtype == np.int8 and sim.colors.dtype == np.int8
    for _ in range(5):
        sim.step()
    assert sim.generations.dtype == np.int8 and sim.colors.dtype == np.int8


def test_matrix_key_does_not_wrap_on_compact_state():
    # generation * k + color reaches 8 * 20 + 7 = 167 > 127: an int8 key
    # would wrap to negative values.
    rng = np.random.default_rng(7)
    rows, k, n = 22, 8, 5000
    generations = rng.integers(14, rows, size=n).astype(np.int8)
    colors = rng.integers(0, k, size=n).astype(np.int8)
    assert int(generations.astype(np.int64).max()) * k >= 128

    expected = np.zeros((rows, k), dtype=np.int64)
    np.add.at(expected, (generations.astype(np.int64), colors.astype(np.int64)), 1)
    matrix = pernode_matrix(generations, colors, rows, k)
    assert matrix.dtype == np.int64
    np.testing.assert_array_equal(matrix, expected)
