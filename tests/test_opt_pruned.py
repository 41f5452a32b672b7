"""Bound-and-prune engine equivalence (the tentpole's contract).

The pruned engine derives an admissible lower bound on every ``(n_r,
V_SSC)`` tile's best EDP and skips tiles that provably cannot beat the
incumbent, scoring the survivors through the gathered broadcast
dispatch.  It must return the *same answer* as the reference slice loop
— same design, same metrics, same margins, same tie resolution — over
every cell of the paper's study matrix, while evaluating at most as
many points.  With ``keep_landscape=True`` pruning is disabled and the
whole visit is bit-identical (including ``n_evaluated``).
"""

import numpy as np
import pytest

from repro import perf
from repro.analysis.experiments import (
    CAPACITIES_BYTES,
    FLAVORS,
    METHODS,
)
from repro.errors import DesignSpaceError
from repro.opt import DesignSpace, ExhaustiveOptimizer, make_policy
from repro.opt.bounds import tile_lower_bounds

#: The full 20-cell study matrix (5 capacities x 2 flavors x 2 methods).
STUDY_CELLS = [
    (flavor, method, capacity)
    for flavor in FLAVORS
    for method in METHODS
    for capacity in CAPACITIES_BYTES
]


def _optimizer(paper_session, flavor, model=None):
    return ExhaustiveOptimizer(
        model or paper_session.model(flavor), DesignSpace(),
        paper_session.constraint(flavor),
    )


def _optimize(paper_session, flavor, method, capacity_bytes, engine,
              keep_landscape=True, model=None):
    optimizer = _optimizer(paper_session, flavor, model=model)
    policy = make_policy(method, paper_session.yield_levels(flavor))
    return optimizer.optimize(capacity_bytes * 8, policy,
                              keep_landscape=keep_landscape,
                              engine=engine)


def _assert_identical(a, b):
    assert a.design == b.design
    assert a.metrics.edp == b.metrics.edp
    assert a.metrics.d_array == b.metrics.d_array
    assert a.metrics.e_total == b.metrics.e_total
    assert a.margins == b.margins
    assert a.n_evaluated == b.n_evaluated
    assert len(a.landscape) == len(b.landscape)
    for pa, pb in zip(a.landscape, b.landscape):
        assert pa == pb


def _assert_same_answer(pruned, ref):
    """Pruned-mode equality: same winner, fewer (or equal) evaluations."""
    assert pruned.design == ref.design
    assert pruned.metrics.edp == ref.metrics.edp
    assert pruned.metrics.d_array == ref.metrics.d_array
    assert pruned.metrics.e_total == ref.metrics.e_total
    assert pruned.margins == ref.margins
    assert pruned.n_evaluated <= ref.n_evaluated


@pytest.mark.parametrize("flavor,method,capacity_bytes", STUDY_CELLS)
def test_pruned_parity_on_study_matrix(paper_session, flavor, method,
                                       capacity_bytes):
    loop = _optimize(paper_session, flavor, method, capacity_bytes,
                     "loop")
    full = _optimize(paper_session, flavor, method, capacity_bytes,
                     "pruned", keep_landscape=True)
    pruned = _optimize(paper_session, flavor, method, capacity_bytes,
                       "pruned", keep_landscape=False)
    _assert_identical(full, loop)
    _assert_same_answer(pruned, loop)


@pytest.mark.parametrize("block_elements", [1, 10 ** 9])
def test_pruned_blocked_and_unblocked_match_loop(paper_session,
                                                 block_elements):
    loop = _optimize(paper_session, "hvt", "M2", 1024, "loop")
    model = paper_session.model("hvt")
    original = model.broadcast_block_elements
    model.broadcast_block_elements = block_elements
    try:
        full = _optimize(paper_session, "hvt", "M2", 1024, "pruned",
                         keep_landscape=True, model=model)
        pruned = _optimize(paper_session, "hvt", "M2", 1024, "pruned",
                           keep_landscape=False, model=model)
    finally:
        model.broadcast_block_elements = original
    _assert_identical(full, loop)
    _assert_same_answer(pruned, loop)


def test_pruning_skips_at_least_half_the_space(paper_session):
    """The acceptance cell: 16KB/HVT/M2 prunes >= 50% of the space."""
    loop = _optimize(paper_session, "hvt", "M2", 16384, "loop")
    pruned = _optimize(paper_session, "hvt", "M2", 16384, "pruned",
                       keep_landscape=False)
    _assert_same_answer(pruned, loop)
    assert pruned.n_evaluated <= loop.n_evaluated // 2


def test_pruned_records_perf_counters(paper_session):
    def counter(name):
        return perf.get_registry().snapshot()["counters"].get(name, 0)

    before_tiles = counter("opt.pruned.tiles_pruned")
    before_points = counter("opt.pruned.points_evaluated")
    pruned = _optimize(paper_session, "hvt", "M2", 16384, "pruned",
                       keep_landscape=False)
    assert counter("opt.pruned.tiles_pruned") > before_tiles
    assert (counter("opt.pruned.points_evaluated") - before_points
            == pruned.n_evaluated)


def test_bounds_are_admissible(paper_session):
    """Every tile's bound is <= the tile's actual best metrics."""
    optimizer = _optimizer(paper_session, "hvt")
    policy = make_policy("M2", paper_session.yield_levels("hvt"))
    capacity_bits = 16384 * 8
    feasible = optimizer._feasible_v_ssc(policy)
    bounds = tile_lower_bounds(optimizer.model, optimizer.space,
                               capacity_bits, policy, feasible)
    result = optimizer.optimize(capacity_bits, policy,
                                keep_landscape=True, engine="vectorized")
    d_lb = bounds.d_array.reshape(-1)
    e_lb = bounds.e_total.reshape(-1)
    edp_lb = bounds.edp.reshape(-1)
    # The landscape visits tiles r-major/s-minor — the same flat order
    # as the bound grids; each landscape point is one point of its tile,
    # so every bound must sit at or below it.
    assert len(result.landscape) == bounds.n_tiles
    for tile, point in enumerate(result.landscape):
        assert d_lb[tile] <= point.d_array
        assert e_lb[tile] <= point.e_total
        assert edp_lb[tile] <= point.edp


def test_bounds_tighten_with_fin_range(paper_session):
    """Bounding a sub-range of fins can only raise (tighten) the bound."""
    optimizer = _optimizer(paper_session, "hvt")
    policy = make_policy("M2", paper_session.yield_levels("hvt"))
    space = optimizer.space
    capacity_bits = 16384 * 8
    feasible = optimizer._feasible_v_ssc(policy)
    wide = tile_lower_bounds(optimizer.model, space, capacity_bits,
                             policy, feasible)
    narrow_space = DesignSpace(n_pre_max=space.n_pre_values[-1] // 2,
                               n_wr_max=space.n_wr_values[-1] // 2)
    narrow = tile_lower_bounds(optimizer.model, narrow_space,
                               capacity_bits, policy, feasible)
    assert np.all(narrow.edp >= wide.edp)


def test_pruned_infeasible_space_raises(paper_session):
    class Infeasible:
        flavor = "hvt"

        def satisfied_grid(self, v_ddc, v_ssc_values, v_wl, v_bl=0.0):
            return np.zeros(len(v_ssc_values), dtype=bool)

        def satisfied(self, *args, **kwargs):
            return False

        def margins(self, *args, **kwargs):
            return (0.0, 0.0, 0.0)

    optimizer = ExhaustiveOptimizer(
        paper_session.model("hvt"), DesignSpace(), Infeasible()
    )
    policy = make_policy("M2", paper_session.yield_levels("hvt"))
    with pytest.raises(DesignSpaceError):
        optimizer.optimize(1024 * 8, policy, engine="pruned")
    with pytest.raises(DesignSpaceError):
        optimizer.pareto(1024 * 8, policy, engine="pruned")


def test_unknown_engine_still_rejected(paper_session):
    optimizer = _optimizer(paper_session, "hvt")
    policy = make_policy("M2", paper_session.yield_levels("hvt"))
    with pytest.raises(ValueError, match="pruned"):
        optimizer.optimize(1024 * 8, policy, engine="nope")
