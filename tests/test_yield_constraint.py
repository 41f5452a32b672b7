"""YieldTargetConstraint: engine parity, none-equivalence, memoization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.opt import ExhaustiveOptimizer, YieldConstraint, \
    YieldTargetConstraint
from repro.opt.methods import make_policy
from repro.opt.space import DesignSpace
from repro.yields.ecc import make_code

ENGINES = ("loop", "vectorized", "pruned")
CAPACITY_BITS = 1024 * 8


@pytest.fixture(scope="module")
def space():
    # Trimmed pulse-count axes keep the loop engine quick; the optimum
    # for this cell sits well inside the trimmed bounds.
    return DesignSpace(n_pre_max=20, n_wr_max=8)


def _optimize(session, constraint, engine, space,
              flavor="hvt", method="M2"):
    from repro.array.model import SRAMArrayModel

    model = SRAMArrayModel(session.chars[flavor], session.config)
    levels = session.yield_levels(flavor)
    return ExhaustiveOptimizer(model, space, constraint).optimize(
        CAPACITY_BITS, make_policy(method, levels), engine=engine)


def _design_tuple(result):
    d = result.design
    return (d.n_r, d.n_c, d.n_pre, d.n_wr,
            d.v_ddc, float(d.v_ssc), d.v_wl)


def _target_constraint(session, code, y_target=0.9, flavor="hvt",
                       **kwargs):
    base = session.constraint(flavor)
    return YieldTargetConstraint(
        library=session.library, flavor=flavor, delta=session.delta,
        y_target=y_target, code=code, capacity_bits=CAPACITY_BITS,
        word_bits=session.config.word_bits,
        trust_fixed_rails=base.trust_fixed_rails,
        flip_lookup=base.flip_lookup, **kwargs)


class TestNoneEquivalence:
    """code="none" must reproduce the fixed-delta optimum exactly."""

    @pytest.mark.parametrize("y_target", [0.5, 0.9, 0.999])
    def test_degenerates_to_fixed_delta(self, paper_session, space,
                                        y_target):
        constraint = _target_constraint(paper_session, "none", y_target)
        assert constraint.delta_z == 0.0

        fixed = _optimize(paper_session, paper_session.constraint("hvt"),
                          "pruned", space)
        relaxed = _optimize(paper_session, constraint, "pruned", space)
        assert _design_tuple(relaxed) == _design_tuple(fixed)
        assert relaxed.metrics.edp == fixed.metrics.edp
        # And the degenerate path never paid for a Monte Carlo run.
        assert constraint._stat_cache == {}

    def test_requirement_is_exactly_delta(self, paper_session):
        constraint = _target_constraint(paper_session, "none")
        assert constraint.requirement(0.55, 0.0) == paper_session.delta


class TestEngineParity:
    """All four engines agree bit-for-bit under the relaxed floor."""

    @pytest.fixture(scope="class")
    def results(self, paper_session, space):
        # One shared constraint: the MC sigma memo is deterministic
        # (fixed seed), so sharing only saves time, never changes
        # values.
        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        assert constraint.delta_z > 0.0
        return {
            engine: _optimize(paper_session, constraint, engine, space)
            for engine in ENGINES
        }

    @pytest.mark.parametrize("engine", ENGINES[1:])
    def test_matches_loop_engine(self, results, engine):
        assert _design_tuple(results[engine]) \
            == _design_tuple(results["loop"])
        assert results[engine].metrics.edp == results["loop"].metrics.edp
        assert results[engine].metrics.d_array \
            == results["loop"].metrics.d_array
        assert results[engine].metrics.e_total \
            == results["loop"].metrics.e_total

    def test_relaxation_admits_no_worse_edp(self, paper_session, space,
                                            results):
        fixed = _optimize(paper_session, paper_session.constraint("hvt"),
                          "pruned", space)
        assert results["pruned"].metrics.edp <= fixed.metrics.edp


class TestRequirementAndSigma:
    def test_secded_relaxes_below_delta(self, paper_session):
        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        req = constraint.requirement(0.55, 0.0)
        assert 0.0 < req < paper_session.delta
        assert req == pytest.approx(
            paper_session.delta
            - constraint.delta_z * constraint.sigma(0.55, 0.0))

    def test_requirement_floors_at_zero(self, paper_session):
        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        constraint.delta = 1e-4   # floor far below the relaxation
        assert constraint.requirement(0.55, 0.0) == 0.0

    def test_sigma_memoized_per_rail_pair(self, paper_session):
        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        a = constraint.sigma(0.55, 0.0)
        assert len(constraint._stat_cache) == 1
        assert constraint.sigma(0.55, 0.0) == a
        assert len(constraint._stat_cache) == 1
        constraint.sigma(0.55, -0.05)
        assert len(constraint._stat_cache) == 2

    def test_margin_budget_fraction_tightens(self, paper_session):
        full = _target_constraint(paper_session, "secded")
        half = _target_constraint(paper_session, "secded",
                                  margin_budget_fraction=0.5)
        assert 0.0 < half.delta_z < full.delta_z

    def test_failure_estimate_and_array_yield(self, paper_session):
        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        est = constraint.failure_estimate(0.55, 0.0)
        assert 0.0 <= est.p_fail < 1.0
        coded, uncoded = constraint.array_yield(0.55, 0.0)
        assert uncoded <= coded <= 1.0


class TestMemoRoundtrip:
    def test_sigma_key_exported_and_reseeded(self, paper_session):
        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        sigma = constraint.sigma(0.55, 0.0)
        memo = constraint.export_margin_memo()
        assert "sigma" in memo
        assert constraint._stat_cache.keys() == memo["sigma"].keys()

        fresh = _target_constraint(paper_session, "secded",
                                   n_samples=60)
        fresh.seed_margin_memo(memo)
        assert fresh._stat_cache == constraint._stat_cache
        # A seeded constraint answers from the memo without rerunning.
        import repro.cell.montecarlo as mc

        def _boom(*args, **kwargs):        # pragma: no cover
            raise AssertionError("Monte Carlo re-ran on a seeded memo")

        original = mc.run_cell_montecarlo
        mc.run_cell_montecarlo = _boom
        try:
            assert fresh.sigma(0.55, 0.0) == sigma
        finally:
            mc.run_cell_montecarlo = original

    def test_base_margin_memo_still_roundtrips(self, paper_session):
        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        constraint.margins(0.55, 0.0, 0.55)
        memo = constraint.export_margin_memo()
        fresh = _target_constraint(paper_session, "secded",
                                   n_samples=60)
        fresh.seed_margin_memo(memo)
        assert fresh.margins(0.55, 0.0, 0.55) \
            == constraint.margins(0.55, 0.0, 0.55)


class TestSharedShiftMatrix:
    """One Vt shift draw feeds every rail pair and every iteration."""

    def test_one_draw_shared_across_rail_pairs(self, paper_session):
        from repro.cell.montecarlo import sample_shift_matrix

        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        matrix = constraint.shift_matrix
        assert constraint.shift_matrix is matrix
        assert np.array_equal(matrix, sample_shift_matrix(60, seed=0))

        constraint.sigma(0.55, 0.0)
        batched = constraint._mc_cell
        assert batched is not None
        constraint.sigma(0.55, -0.05)
        assert constraint._mc_cell is batched
        assert constraint._shift_matrix is matrix

    def test_stats_bit_identical_to_montecarlo_engine(self,
                                                      paper_session):
        from repro.cell.bias import CellBias
        from repro.cell.montecarlo import run_cell_montecarlo

        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        mu, sigma, tail, n = constraint.min_margin_stats(0.55, 0.0)

        vdd = paper_session.library.vdd
        result = run_cell_montecarlo(
            constraint.base.cell, n_samples=60, seed=0, vdd=vdd,
            read_bias=CellBias.read(vdd=vdd, v_ddc=0.55, v_ssc=0.0),
            metrics=("hsnm", "rsnm"), snm_points=41, engine="batched",
        )
        values = np.minimum(result.metric("hsnm").values,
                            result.metric("rsnm").values)
        assert n == values.size
        assert mu == float(np.mean(values))
        assert sigma == float(np.std(values, ddof=1))
        assert tail == int(np.sum(values < 0.0))


class TestSampledRelaxation:
    """The rare-event sampler behind the margin-floor solve."""

    def test_unknown_sampler_rejected(self, paper_session):
        with pytest.raises(ValueError):
            _target_constraint(paper_session, "secded", sampler="bogus")

    def test_gaussian_mode_has_no_tail_estimate(self, paper_session):
        constraint = _target_constraint(paper_session, "secded",
                                        n_samples=60)
        with pytest.raises(ValueError):
            constraint.tail_estimate(0.55, 0.0)

    def test_unconverged_budget_falls_back_to_gaussian(self,
                                                       paper_session):
        constraint = _target_constraint(
            paper_session, "secded", n_samples=60, sampler="shifted",
            ci_target=0.01, max_samples=128,
        )
        relax = constraint.relaxation(0.55, 0.0)
        assert relax == constraint.delta_z * constraint.sigma(0.55, 0.0)
        estimate = constraint._relax_cache[(0.55, 0.0)][1]
        assert estimate is not None
        assert not estimate.converged

    def test_buffer_reused_across_floor_queries(self, paper_session):
        constraint = _target_constraint(
            paper_session, "secded", n_samples=60, sampler="shifted",
            ci_target=0.5, max_samples=256,
        )
        relax = constraint.relaxation(0.55, 0.0)
        buffer = constraint._buffer_cache[(0.55, 0.0)]
        assert buffer.search is not None
        evals = buffer.solver.n_evals
        # Repeated relaxations, reported tails, and fresh floor
        # bisections all ride the cached samples — zero re-solves.
        assert constraint.relaxation(0.55, 0.0) == relax
        estimate = constraint.tail_estimate(0.55, 0.0)
        buffer.floor_for(1e-3)
        assert buffer.solver.n_evals == evals
        assert estimate.n_samples >= 2 * buffer.block
        assert 0.0 <= relax
        assert constraint.requirement(0.55, 0.0) <= constraint.delta

    def test_sampled_relaxation_memo_roundtrip(self, paper_session):
        constraint = _target_constraint(
            paper_session, "secded", n_samples=60, sampler="shifted",
            ci_target=0.5, max_samples=256,
        )
        relax = constraint.relaxation(0.55, 0.0)
        memo = constraint.export_margin_memo()
        assert memo["relaxation"] == {(0.55, 0.0): relax}

        fresh = _target_constraint(
            paper_session, "secded", n_samples=60, sampler="shifted",
            ci_target=0.5, max_samples=256,
        )
        fresh.seed_margin_memo(memo)
        assert fresh.relaxation(0.55, 0.0) == relax
        # Answered from the memo: no buffer was ever built.
        assert fresh._buffer_cache == {}


class TestCodeResolution:
    def test_string_code_resolved(self, paper_session):
        constraint = _target_constraint(paper_session, "secded")
        assert constraint.code.name == "secded"
        assert constraint.code.check_bits == 8

    def test_code_object_passthrough(self, paper_session):
        code = make_code("secded-x2", 64)
        constraint = _target_constraint(paper_session, code)
        assert constraint.code is code
        assert constraint.n_words == CAPACITY_BITS // 64
