"""Study-matrix parity of the search engines against the loop oracle,
and of :meth:`ExhaustiveOptimizer.optimize_many` against per-policy
searches.

The production engines (``vectorized`` and ``pruned``) must return
bit-identical results to the reference slice loop — same design, same
EDP, same evaluation count, same landscape — over every cell of the
paper's study matrix.  ``optimize_many`` is a per-policy loop, so its
results must equal per-policy :meth:`~ExhaustiveOptimizer.optimize`
calls through each engine.
"""

import pytest

from repro.analysis.experiments import (
    CAPACITIES_BYTES,
    FLAVORS,
    METHODS,
)
from repro.opt import DesignSpace, ExhaustiveOptimizer, make_policy

#: The full 20-cell study matrix (5 capacities x 2 flavors x 2 methods).
STUDY_CELLS = [
    (flavor, method, capacity)
    for flavor in FLAVORS
    for method in METHODS
    for capacity in CAPACITIES_BYTES
]


def _optimize(paper_session, flavor, method, capacity_bytes, engine,
              model=None):
    model = model or paper_session.model(flavor)
    optimizer = ExhaustiveOptimizer(
        model, DesignSpace(), paper_session.constraint(flavor)
    )
    policy = make_policy(method, paper_session.yield_levels(flavor))
    return optimizer.optimize(capacity_bytes * 8, policy,
                              keep_landscape=True, engine=engine)


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


@pytest.mark.parametrize("flavor,method,capacity_bytes", STUDY_CELLS)
def test_three_way_parity_on_study_matrix(paper_session, flavor, method,
                                          capacity_bytes):
    loop = _optimize(paper_session, flavor, method, capacity_bytes,
                     "loop")
    vec = _optimize(paper_session, flavor, method, capacity_bytes,
                    "vectorized")
    pruned = _optimize(paper_session, flavor, method, capacity_bytes,
                       "pruned")
    _assert_identical(vec, loop)
    _assert_identical(pruned, loop)


# ---------------------------------------------------------------------------
# optimize_many (one search per policy)
# ---------------------------------------------------------------------------

#: The 10 (flavor, capacity) cells; each one runs all METHODS, so
#: together they still cover the full 20-cell study matrix.
POLICY_BATCH_CELLS = [
    (flavor, capacity)
    for flavor in FLAVORS
    for capacity in CAPACITIES_BYTES
]


def _optimize_many(paper_session, flavor, capacity_bytes, engine,
                   model=None):
    model = model or paper_session.model(flavor)
    optimizer = ExhaustiveOptimizer(
        model, DesignSpace(), paper_session.constraint(flavor)
    )
    levels = paper_session.yield_levels(flavor)
    policies = [make_policy(method, levels) for method in METHODS]
    return optimizer.optimize_many(capacity_bytes * 8, policies,
                                   keep_landscape=True, engine=engine)


@pytest.mark.parametrize("flavor,capacity_bytes", POLICY_BATCH_CELLS)
def test_optimize_many_parity_on_study_matrix(paper_session, flavor,
                                              capacity_bytes):
    for engine in ("vectorized", "pruned"):
        many = _optimize_many(paper_session, flavor, capacity_bytes,
                              engine)
        assert len(many) == len(METHODS)
        for method, result in zip(METHODS, many):
            assert result.method == method
            ref = _optimize(paper_session, flavor, method,
                            capacity_bytes, engine)
            _assert_identical(result, ref)


@pytest.mark.parametrize("block_elements", [1, 10 ** 9])
def test_optimize_many_blocked_and_unblocked_match_loop(paper_session,
                                                        block_elements):
    model = paper_session.model("hvt")
    original = model.broadcast_block_elements
    model.broadcast_block_elements = block_elements
    try:
        many = _optimize_many(paper_session, "hvt", 1024, "pruned",
                              model=model)
    finally:
        model.broadcast_block_elements = original
    for method, result in zip(METHODS, many):
        ref = _optimize(paper_session, "hvt", method, 1024, "loop")
        _assert_identical(result, ref)


def test_optimize_many_empty_policy_list(paper_session):
    optimizer = ExhaustiveOptimizer(
        paper_session.model("hvt"), DesignSpace(),
        paper_session.constraint("hvt")
    )
    assert optimizer.optimize_many(1024 * 8, []) == []
