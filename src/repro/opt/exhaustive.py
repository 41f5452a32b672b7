"""Exhaustive minimum-EDP search (paper Section 5).

With V_DDC / V_WL pre-set by the voltage policy, the free variables are
``(n_r, V_SSC, N_pre, N_wr)`` — small enough for exhaustive search (the
paper reports under two minutes on a 2011-era server; the vectorized
grid evaluation here takes milliseconds per configuration).

Two production engines and one reference share one result path:

* ``engine="vectorized"`` (default) — the whole feasible
  ``V_SSC x N_pre x N_wr`` space of one row count is evaluated in a
  single broadcast call of the array model (``v_ssc`` rides along as a
  ``(S, 1, 1)`` axis over the fin grid), so a full policy search costs
  O(rows) model calls.  The yield constraint is applied once, up front,
  as a vectorized boolean mask over the V_SSC candidates
  (:meth:`YieldConstraint.satisfied_grid`) — cell margins do not depend
  on the organization or the fin counts.
* ``engine="pruned"`` — *shrinks* the space instead of evaluating it
  faster: admissible per-``(n_r, V_SSC)`` lower bounds
  (:mod:`repro.opt.bounds`) are computed for every tile in one tiny
  broadcast call, the tile with the smallest EDP bound is evaluated
  first to seed an incumbent, and every tile whose bound strictly
  exceeds the incumbent is skipped without ever calling
  ``model.evaluate``.  Survivors score through gathered broadcast
  dispatches (one ``n_r`` / ``n_c`` / ``v_ssc`` element per tile along
  a shared leading axis) and the final scan replays the loop engine's
  r-major/s-minor strict-``<`` order, so the result — including argmin
  tie-breaking — is bit-identical to the reference.
  ``keep_landscape=True`` needs every tile's slice-best anyway, so it
  disables pruning and matches the loop engine's landscape and
  evaluation count exactly.
* ``engine="loop"`` — the original per-``(n_r, V_SSC)`` slice loop,
  kept as the bit-exact oracle the equivalence tests compare against.

:meth:`ExhaustiveOptimizer.optimize_many` is a convenience loop over
:meth:`ExhaustiveOptimizer.optimize`, one search per policy.

All engines perform the same elementwise arithmetic in the same order,
so they return bit-identical results (designs, EDP, and landscapes;
evaluation counts too, except where pruning skips tiles).
"""

from __future__ import annotations

import numpy as np

from .. import perf
from ..array.model import DesignPoint
from ..errors import DesignSpaceError
from .bounds import tile_lower_bounds
from .pareto import ParetoFrontBuilder, ParetoSearchResult, pareto_front
from .results import LandscapePoint, OptimizationResult


class ExhaustiveOptimizer:
    """Minimum-EDP exhaustive search over a :class:`DesignSpace`."""

    def __init__(self, model, space, constraint):
        self.model = model
        self.space = space
        self.constraint = constraint

    def optimize(self, capacity_bits, policy, keep_landscape=False,
                 engine="vectorized"):
        """Search one capacity under one voltage policy.

        Returns an :class:`OptimizationResult`; raises
        :class:`DesignSpaceError` when no candidate satisfies the yield
        constraint.
        """
        search = {
            "vectorized": self._search_vectorized,
            "pruned": self._search_pruned,
            "loop": self._search_loop,
        }.get(engine)
        if search is None:
            raise ValueError(
                "unknown engine %r (expected 'pruned', 'vectorized' or "
                "'loop')" % (engine,)
            )
        with perf.timed("optimizer.search.%s" % engine):
            best, landscape, n_evaluated = search(
                capacity_bits, policy, keep_landscape
            )
        perf.count("optimizer.evaluations", n_evaluated)
        return self._finalize(capacity_bits, policy, best, landscape,
                              n_evaluated)

    def optimize_many(self, capacity_bits, policies, keep_landscape=False,
                      engine="vectorized"):
        """Search one capacity under every policy, in input order.

        One :meth:`optimize` call per policy; raises
        :class:`DesignSpaceError` at the first policy whose yield
        constraint is unsatisfiable.
        """
        return [
            self.optimize(capacity_bits, policy,
                          keep_landscape=keep_landscape, engine=engine)
            for policy in policies
        ]

    def pareto(self, capacity_bits, policy, engine="pruned"):
        """Energy-delay Pareto front of one capacity under one policy.

        ``engine="pruned"`` maintains the front *incrementally* during a
        bound-accelerated sweep: a tile whose ``(D_lb, E_lb)`` bound
        corner is weakly dominated by the current front cannot
        contribute a front point (the corner lower-bounds every design
        in the tile) and is skipped without evaluation, so no
        ``keep_landscape=True`` landscape is ever materialized.  Any
        other engine falls back to a full ``keep_landscape=True`` search
        plus :func:`repro.opt.pareto.pareto_front` — both paths return
        element-wise equal fronts.

        Returns a :class:`ParetoSearchResult`; raises
        :class:`DesignSpaceError` when no candidate satisfies the yield
        constraint.
        """
        if engine != "pruned":
            result = self.optimize(capacity_bits, policy,
                                   keep_landscape=True, engine=engine)
            return ParetoSearchResult(
                capacity_bits=capacity_bits,
                flavor=self.constraint.flavor,
                method=policy.method,
                engine=engine,
                front=tuple(pareto_front(result.landscape)),
                n_evaluated=result.n_evaluated,
                n_tiles=len(result.landscape),
                tiles_pruned=0,
            )
        with perf.timed("optimizer.pareto.pruned"):
            front, n_evaluated, n_tiles, tiles_pruned = (
                self._pareto_pruned(capacity_bits, policy)
            )
        perf.count("optimizer.evaluations", n_evaluated)
        return ParetoSearchResult(
            capacity_bits=capacity_bits,
            flavor=self.constraint.flavor,
            method=policy.method,
            engine="pruned",
            front=tuple(front),
            n_evaluated=n_evaluated,
            n_tiles=n_tiles,
            tiles_pruned=tiles_pruned,
        )

    def _pareto_pruned(self, capacity_bits, policy):
        """The incremental front sweep behind :meth:`pareto`."""
        feasible = self._feasible_v_ssc(policy)
        if feasible.size == 0:
            raise DesignSpaceError(
                "no feasible design for %d bits under policy %s "
                "(yield constraint unsatisfiable)"
                % (capacity_bits, policy.method)
            )
        rows = np.asarray(self.space.row_counts(capacity_bits),
                          dtype=np.int64)
        n_slices = feasible.size
        n_tiles = rows.size * n_slices
        bounds = tile_lower_bounds(
            self.model, self.space, capacity_bits, policy, feasible
        )
        builder = ParetoFrontBuilder()
        evaluated = {}
        n_evaluated = 0
        tiles_pruned = 0
        for r in range(rows.size):
            # Skip decisions use the front as of the previous row: a
            # member dominating a tile's bound corner always precedes
            # that tile in visit order, which the first-wins tie rule
            # requires.  Same-row candidates only ever *add* work (a
            # tile the fresh inserts would have covered still evaluates
            # and gets rejected by the builder), never change the front.
            skip = builder.dominated_mask(
                bounds.d_array[r], bounds.e_total[r]
            )
            tiles_pruned += int(skip.sum())
            survivors = np.flatnonzero(~skip) + r * n_slices
            if survivors.size == 0:
                continue
            n_evaluated += self._score_tiles(
                capacity_bits, policy, rows, feasible, survivors,
                evaluated,
            )
            for tile in survivors:
                builder.insert(evaluated[int(tile)])
        perf.count("opt.pruned.tiles_pruned", tiles_pruned)
        perf.count("opt.pruned.points_evaluated", n_evaluated)
        return builder.front(), n_evaluated, n_tiles, tiles_pruned

    def _finalize(self, capacity_bits, policy, best, landscape,
                  n_evaluated):
        """Re-evaluate the winner at scalar rank and wrap the result."""
        if best is None:
            raise DesignSpaceError(
                "no feasible design for %d bits under policy %s "
                "(yield constraint unsatisfiable)"
                % (capacity_bits, policy.method)
            )
        final_design = DesignPoint(
            n_r=best.n_r, n_c=capacity_bits // best.n_r,
            n_pre=best.n_pre, n_wr=best.n_wr,
            v_ddc=policy.v_ddc, v_ssc=best.v_ssc, v_wl=policy.v_wl,
            v_bl=policy.v_bl,
        )
        final_metrics = self.model.evaluate(capacity_bits, final_design)
        margins = self.constraint.margins(
            final_design.v_ddc, final_design.v_ssc, final_design.v_wl,
            final_design.v_bl,
        )
        return OptimizationResult(
            capacity_bits=capacity_bits,
            flavor=self.constraint.flavor,
            method=policy.method,
            design=final_design,
            metrics=final_metrics,
            margins=margins,
            n_evaluated=n_evaluated,
            landscape=landscape,
        )

    # -- feasibility -------------------------------------------------------

    def _feasible_v_ssc(self, policy):
        """The policy's V_SSC candidates that clear the yield constraint,
        in candidate order (margins are organization-independent, so
        this is computed once per search, not once per slice)."""
        candidates = np.asarray(policy.v_ssc_candidates(self.space),
                                dtype=float)
        grid_check = getattr(self.constraint, "satisfied_grid", None)
        if grid_check is not None:
            mask = np.asarray(grid_check(
                policy.v_ddc, candidates, policy.v_wl, policy.v_bl
            ), dtype=bool)
        else:
            mask = np.array([
                bool(self.constraint.satisfied(
                    policy.v_ddc, float(v), policy.v_wl, policy.v_bl
                ))
                for v in candidates
            ], dtype=bool)
        return candidates[mask]

    # -- engines -----------------------------------------------------------

    def _search_vectorized(self, capacity_bits, policy, keep_landscape):
        """O(rows) broadcast calls: one ``(S, P, W)`` evaluation per
        row count, where S spans the feasible V_SSC candidates."""
        feasible = self._feasible_v_ssc(policy)
        best = None
        landscape = []
        n_evaluated = 0
        if feasible.size == 0:
            return best, landscape, n_evaluated
        n_pre_grid, n_wr_grid = np.meshgrid(
            self.space.n_pre_values, self.space.n_wr_values, indexing="ij"
        )
        v_ssc_axis = feasible.reshape(-1, 1, 1)
        full_shape = (feasible.size,) + n_pre_grid.shape
        # One flat EDP buffer reused across row counts: broadcasting the
        # metrics into it replaces the per-row broadcast_to + reshape
        # (which copied an array per n_r).
        edp_buf = np.empty(full_shape)
        flat = edp_buf.reshape(feasible.size, -1)
        for n_r in self.space.row_counts(capacity_bits):
            design = DesignPoint(
                n_r=n_r, n_c=capacity_bits // n_r,
                n_pre=n_pre_grid, n_wr=n_wr_grid,
                v_ddc=policy.v_ddc, v_ssc=v_ssc_axis,
                v_wl=policy.v_wl, v_bl=policy.v_bl,
            )
            metrics = self.model.evaluate(capacity_bits, design)
            n_evaluated += feasible.size * n_pre_grid.size
            np.copyto(edp_buf, metrics.edp)
            d_array = np.broadcast_to(metrics.d_array, full_shape)
            e_total = np.broadcast_to(metrics.e_total, full_shape)
            slice_argmins = flat.argmin(axis=1)
            for s in range(feasible.size):
                arg = int(slice_argmins[s])
                i, j = np.unravel_index(arg, n_pre_grid.shape)
                slice_best = LandscapePoint(
                    n_r=n_r, v_ssc=float(feasible[s]),
                    n_pre=int(n_pre_grid[i, j]),
                    n_wr=int(n_wr_grid[i, j]),
                    edp=float(edp_buf[s, i, j]),
                    d_array=float(d_array[s, i, j]),
                    e_total=float(e_total[s, i, j]),
                )
                if keep_landscape:
                    landscape.append(slice_best)
                if best is None or slice_best.edp < best.edp:
                    best = slice_best
        return best, landscape, n_evaluated

    def _score_tiles(self, capacity_bits, policy, rows, feasible,
                     tile_ids, out):
        """Evaluate the full fin grid of the given flat tile ids
        (r-major/s-minor C order) through gathered broadcast dispatches,
        recording each tile's slice-best :class:`LandscapePoint` in the
        ``out`` dict keyed by tile id.  Returns the number of design
        points evaluated.

        ``n_r`` / ``n_c`` / ``v_ssc`` carry one element per tile along a
        shared leading axis over the thin ``(P, 1) x (1, W)`` fin axes.
        The dispatch is chunked so one call's broadcast stays within the
        ``model.broadcast_block_elements`` working-set knob.  Chunking
        is value-neutral — every elementwise result is bit-identical to
        the scalar reference regardless of how tiles share a call.
        """
        n_pre_vals = np.asarray(self.space.n_pre_values)
        n_wr_vals = np.asarray(self.space.n_wr_values)
        n_pre_grid, n_wr_grid = np.meshgrid(
            n_pre_vals, n_wr_vals, indexing="ij"
        )
        grid_shape = n_pre_grid.shape
        grid_size = n_pre_grid.size
        n_slices = feasible.size
        tile_ids = np.asarray(tile_ids, dtype=np.int64).reshape(-1)
        chunk = max(
            1, int(self.model.broadcast_block_elements) // grid_size
        )
        n_evaluated = 0
        for start in range(0, tile_ids.size, chunk):
            ids = tile_ids[start:start + chunk]
            r_idx = ids // n_slices
            s_idx = ids % n_slices
            tile_rows = rows[r_idx]
            design = DesignPoint(
                n_r=tile_rows.reshape(-1, 1, 1),
                n_c=(capacity_bits // tile_rows).reshape(-1, 1, 1),
                n_pre=n_pre_vals.reshape(-1, 1),
                n_wr=n_wr_vals.reshape(1, -1),
                v_ddc=policy.v_ddc,
                v_ssc=feasible[s_idx].reshape(-1, 1, 1),
                v_wl=policy.v_wl, v_bl=policy.v_bl,
            )
            metrics = self.model.evaluate(capacity_bits, design)
            n_evaluated += ids.size * grid_size
            shape = (ids.size,) + grid_shape
            edp = np.ascontiguousarray(
                np.broadcast_to(metrics.edp, shape)
            )
            flat = edp.reshape(ids.size, -1)
            args = flat.argmin(axis=1)
            d_array = np.broadcast_to(metrics.d_array, shape)
            e_total = np.broadcast_to(metrics.e_total, shape)
            for t in range(ids.size):
                arg = int(args[t])
                i, j = np.unravel_index(arg, grid_shape)
                out[int(ids[t])] = LandscapePoint(
                    n_r=int(tile_rows[t]),
                    v_ssc=float(feasible[int(s_idx[t])]),
                    n_pre=int(n_pre_grid[i, j]),
                    n_wr=int(n_wr_grid[i, j]),
                    edp=float(flat[t, arg]),
                    d_array=float(d_array[t, i, j]),
                    e_total=float(e_total[t, i, j]),
                )
        return n_evaluated

    def _search_pruned(self, capacity_bits, policy, keep_landscape):
        """Bound-and-prune: skip every tile whose admissible EDP lower
        bound strictly exceeds the incumbent, then replay the loop
        engine's strict-``<`` scan over the evaluated tiles.

        Pruned tiles satisfy ``min_edp >= edp_lb > incumbent >= global
        minimum``, so they can neither win nor tie — any possible tie
        stays inside the evaluated set, where the visit-order scan
        resolves it exactly as the reference does.  The evaluation
        *count* is the one result field that legitimately differs from
        the exhaustive engines when pruning is active.
        """
        feasible = self._feasible_v_ssc(policy)
        landscape = []
        if feasible.size == 0:
            return None, landscape, 0
        rows = np.asarray(self.space.row_counts(capacity_bits),
                          dtype=np.int64)
        n_tiles = rows.size * feasible.size
        evaluated = {}
        if keep_landscape:
            # A landscape needs every tile's slice-best, so nothing can
            # be pruned; the full visit matches the loop engine exactly,
            # evaluation count included.
            n_evaluated = self._score_tiles(
                capacity_bits, policy, rows, feasible,
                np.arange(n_tiles), evaluated,
            )
            perf.count("opt.pruned.tiles_pruned", 0)
            perf.count("opt.pruned.points_evaluated", n_evaluated)
            landscape = [evaluated[t] for t in range(n_tiles)]
            best = None
            for point in landscape:
                if best is None or point.edp < best.edp:
                    best = point
            return best, landscape, n_evaluated

        bounds = tile_lower_bounds(
            self.model, self.space, capacity_bits, policy, feasible
        )
        edp_lb = bounds.edp.reshape(-1)
        # Seed: the tile with the smallest bound (first in visit order
        # on ties) is the likeliest home of the optimum; its true
        # slice-best becomes the incumbent before any pruning decision.
        seed = int(np.argmin(edp_lb))
        n_evaluated = self._score_tiles(
            capacity_bits, policy, rows, feasible, [seed], evaluated
        )
        incumbent = evaluated[seed].edp
        # Survive on <=: a bound that merely *equals* the incumbent
        # cannot justify pruning (the tile could tie, and ties must
        # resolve by visit order among evaluated tiles).
        survivors = np.flatnonzero(edp_lb <= incumbent)
        survivors = survivors[survivors != seed]
        n_evaluated += self._score_tiles(
            capacity_bits, policy, rows, feasible, survivors, evaluated
        )
        perf.count("opt.pruned.tiles_pruned",
                   n_tiles - 1 - int(survivors.size))
        perf.count("opt.pruned.points_evaluated", n_evaluated)
        best = None
        for tile in sorted(evaluated):
            point = evaluated[tile]
            if best is None or point.edp < best.edp:
                best = point
        return best, landscape, n_evaluated

    def _search_loop(self, capacity_bits, policy, keep_landscape):
        """The original per-(n_r, V_SSC) slice loop (reference engine)."""
        n_pre_grid, n_wr_grid = np.meshgrid(
            self.space.n_pre_values, self.space.n_wr_values, indexing="ij"
        )
        best = None
        landscape = []
        n_evaluated = 0
        for n_r in self.space.row_counts(capacity_bits):
            n_c = capacity_bits // n_r
            for v_ssc in policy.v_ssc_candidates(self.space):
                if not self.constraint.satisfied(
                    policy.v_ddc, v_ssc, policy.v_wl, policy.v_bl
                ):
                    continue
                design = DesignPoint(
                    n_r=n_r, n_c=n_c,
                    n_pre=n_pre_grid, n_wr=n_wr_grid,
                    v_ddc=policy.v_ddc, v_ssc=float(v_ssc),
                    v_wl=policy.v_wl, v_bl=policy.v_bl,
                )
                metrics = self.model.evaluate(capacity_bits, design)
                n_evaluated += n_pre_grid.size
                flat = int(np.argmin(metrics.edp))
                i, j = np.unravel_index(flat, n_pre_grid.shape)
                slice_best = LandscapePoint(
                    n_r=n_r, v_ssc=float(v_ssc),
                    n_pre=int(n_pre_grid[i, j]),
                    n_wr=int(n_wr_grid[i, j]),
                    edp=float(metrics.edp[i, j]),
                    d_array=float(metrics.d_array[i, j]),
                    e_total=float(metrics.e_total[i, j]),
                )
                if keep_landscape:
                    landscape.append(slice_best)
                if best is None or slice_best.edp < best.edp:
                    best = slice_best
        return best, landscape, n_evaluated
