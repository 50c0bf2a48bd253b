"""Frontier sweeps, their shape, and the empirical rate crosscheck."""

import dataclasses
import re

import numpy as np
import pytest

from local_update_lab import (
    ClientModel,
    Population,
    SpectrumBounds,
    WeightScheme,
    delta_from_kappa,
    kappa_bound,
    kappa_exact,
    psi,
    random_spd_with_spectrum,
    rho_from_kappa,
)
from local_update_lab.errors import ConditioningError, InvalidInputError
from local_update_lab.frontier import (
    CSV_HEADER,
    Frontier,
    FrontierPoint,
    SweepSpec,
    default_gamma_grid,
    default_k_grid,
    empirical_rate_crosscheck,
    frontier_csv,
    frontier_json_payload,
    simulated_maml_sweep,
    sweep,
)
from local_update_lab.matrices import child_seed, keyed_rng
from local_update_lab.verify import random_population, rate_check_population
from polylines import farthest_vertex, point_to_polyline, polyline_hausdorff


def fedavg_spec(mu=1.0, ell=10.0, gamma=0.05, points=40, optimizers=("plain",), **kw):
    return SweepSpec(
        family="fedavg_theta", vary="K", grid=default_k_grid(10**6, points),
        mu=mu, ell=ell, gamma=gamma, optimizers=optimizers, **kw,
    )


class TestGrids:
    def test_k_grid_shape(self):
        grid = default_k_grid(10**6, 60)
        assert grid[0] == 1
        assert grid[-1] == 10**6
        assert np.all(np.diff(grid) > 0)

    def test_gamma_grid(self):
        grid = default_gamma_grid(0.1, 30)
        assert grid[-1] == pytest.approx(0.1)
        assert np.all(np.diff(grid) > 0)

    @pytest.mark.parametrize("k_max", [float("nan"), float("inf"), 0, -3, 1e300, 10**22])
    def test_k_grid_rejects_bad_k_max(self, k_max):
        with pytest.raises(InvalidInputError, match=re.escape(f"k_max must lie in [1, 2**53], got {k_max}")):
            default_k_grid(k_max, 3)

    def test_k_grid_reaches_2_to_the_53(self):
        # the grid's float end point is rounded, not cast out of int64 range
        assert 2**53 - 100 < default_k_grid(2**53, 3)[-1] <= 2**53

    @pytest.mark.parametrize("gamma_max", [float("nan"), float("inf"), 0.0, -0.1])
    def test_gamma_grid_rejects_bad_gamma_max(self, gamma_max):
        with pytest.raises(InvalidInputError, match=re.escape(f"gamma_max must be finite and positive, got {gamma_max}")):
            default_gamma_grid(gamma_max, 3)


class TestSweepSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(InvalidInputError):
            SweepSpec(family="fedprox", vary="K", grid=np.array([1]), mu=1.0, ell=2.0, gamma=0.1)

    def test_nonincreasing_grid(self):
        with pytest.raises(InvalidInputError):
            SweepSpec(
                family="fedavg_theta", vary="K", grid=np.array([3, 2]), mu=1.0, ell=2.0, gamma=0.1
            )

    def test_spectral_source_needs_population_or_dim(self):
        with pytest.raises(InvalidInputError, match="population or a dim"):
            SweepSpec(
                family="maml_theta", vary="K", grid=np.array([1, 2]), mu=1.0, ell=10.0,
                gamma=0.01, kappa_source="exact_spectral",
            )

    @pytest.mark.parametrize("source, with_population, dim, message", [
        ("closed_form", True, None, "closed_form sweeps take no population"),
        ("closed_form", False, 3, "closed_form sweeps take no dim"),
        ("exact_spectral", True, 3, "exact_spectral sweeps need a population or a dim, not both"),
    ])
    def test_unread_kappa_source_input_rejected(self, source, with_population, dim, message):
        # the source would ignore this input; a closed_form spec holding a
        # population returned closed-form points without a word
        pop = random_population(keyed_rng(1, 1), min_dim=3, max_dim=3) if with_population else None
        with pytest.raises(InvalidInputError, match=message):
            SweepSpec(family="fedavg_theta", vary="K", grid=np.array([1, 2]), mu=1.0, ell=10.0,
                      gamma=0.01, kappa_source=source, population=pop, dim=dim)

    @pytest.mark.parametrize("dim, message", [
        (0, "dim must be >= 1, got 0"), (-1, "dim must be >= 1, got -1"), (2.5, "dim must be an integer, got 2.5"),
    ])
    def test_dim_checked_where_the_spec_is_built(self, dim, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            SweepSpec(family="maml_theta", vary="K", grid=np.array([1, 2]), mu=1.0, ell=10.0,
                      gamma=0.01, kappa_source="exact_spectral", dim=dim)

    @pytest.mark.parametrize("optimizers", [("plain", "plain"), ("heavy_ball", "plain", "heavy_ball")])
    def test_repeated_optimizer(self, optimizers):
        repeated = optimizers[-1]
        with pytest.raises(InvalidInputError, match=f"optimizer '{repeated}' is listed more than once"):
            fedavg_spec(points=3, optimizers=optimizers)

    def test_nonfinite_grid(self):
        with pytest.raises(InvalidInputError, match="non-finite"):
            SweepSpec(
                family="fedavg_theta", vary="alpha", grid=np.array([0.0, np.nan]),
                mu=1.0, ell=10.0, gamma=0.01, k=5,
            )

    def test_fixed_values_required(self):
        with pytest.raises(InvalidInputError, match="fixed K"):
            SweepSpec(
                family="fedavg_theta", vary="gamma", grid=np.array([0.01, 0.02]),
                mu=1.0, ell=2.0,
            )


class TestSweep:
    def test_first_point_undistorted(self):
        frontier = sweep(fedavg_spec())
        first = frontier.points[0]
        assert first.k == 1
        assert first.delta == 0.0
        assert first.rho == pytest.approx(rho_from_kappa(10.0, "plain"), abs=1e-15)

    def test_one_shot_averaging_limit(self):
        # alpha=0, gamma=(2L)^-1, K -> 1e6: kappa -> 1, delta -> delta(1)
        frontier = sweep(fedavg_spec(gamma=0.05))
        last = frontier.points[-1]
        assert last.rho <= 1e-6
        expected_delta = (np.sqrt(10.0) - 1.0) / (np.sqrt(10.0) + 1.0)
        assert last.delta == pytest.approx(expected_delta, abs=1e-9)

    def test_population_sweep_to_a_million_takes_no_memory_in_k(self):
        # named schemes stay records (kind, K, theta) and kappa_exact maps the
        # stored spectra, so no grid point allocates its K coefficients (the
        # largest, 8 MB at K = 1e6, set a 10 MB peak when they were built)
        import tracemalloc

        rng = keyed_rng(43, 0)
        pop = random_population(rng, min_dim=48, max_dim=48, min_clients=48, max_clients=48)
        spec = SweepSpec(family="fedavg_theta", vary="K", grid=default_k_grid(10**6, 60), mu=1.0,
                         ell=10.0, gamma=1e-3, optimizers=("plain",), kappa_source="exact_spectral",
                         population=pop)
        for family in ("fedavg_theta", "maml_theta"):
            tracemalloc.start()
            try:
                frontier = sweep(dataclasses.replace(spec, family=family))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert frontier.points and peak < 1_000_000

    def test_monotone_along_k(self):
        # increasing K trades convergence for accuracy: rho falls, delta rises
        frontier = sweep(fedavg_spec(points=60))
        rhos = [p.rho for p in frontier.points]
        deltas = [p.delta for p in frontier.points]
        assert all(a >= b for a, b in zip(rhos, rhos[1:]))
        assert all(a <= b for a, b in zip(deltas, deltas[1:]))

    def test_momentum_improves_rho_not_delta(self):
        frontier = sweep(fedavg_spec(optimizers=("plain", "heavy_ball")))
        plain = frontier.series("plain")
        heavy = frontier.series("heavy_ball")
        assert len(plain) == len(heavy)
        for p, h in zip(plain, heavy):
            assert p.delta == h.delta
            assert h.rho <= p.rho

    def test_fedavg_gamma_grid_precondition(self):
        with pytest.raises(ConditioningError):
            sweep(
                SweepSpec(
                    family="fedavg_theta", vary="gamma",
                    grid=np.array([0.01, 0.15]),  # second point crosses 1/L
                    mu=1.0, ell=10.0, k=10,
                )
            )

    def test_maml_closed_form_skips_with_reason(self):
        spec = SweepSpec(
            family="maml_theta", vary="K", grid=default_k_grid(10**4, 30),
            mu=1.0, ell=10.0, gamma=0.001,
        )
        frontier = sweep(spec)
        # points beyond K = (gamma L)^-1 = 100 are skipped for the closed form
        assert all(p.k < 100 for p in frontier.points)
        assert frontier.skipped
        assert all("gamma < 1/(K*ell+alpha)" in s.reason for s in frontier.skipped)

    def test_population_maml_gamma_grid_skips_noncontractive(self):
        pop = random_population(keyed_rng(4, 1), min_dim=5, max_dim=5, min_clients=3, max_clients=3)
        spec = SweepSpec(
            family="maml_theta", vary="gamma", grid=np.array([0.001, 0.01, 0.1, 0.2]),
            mu=1.0, ell=10.0, k=3, kappa_source="exact_spectral", population=pop,
        )
        frontier = sweep(spec)
        assert {p.gamma for p in frontier.points} == {0.001, 0.01}
        assert [s.axis_value for s in frontier.skipped] == [0.1, 0.2]
        assert all("need gamma < 1/(ell + alpha)" in s.reason for s in frontier.skipped)

    def test_population_bounds_must_match_spec(self):
        # kappa0 comes from the spec's (mu, ell); a population with other
        # bounds gave a silently wrong frontier (delta 0.72 instead of 0.33)
        pop = random_population(keyed_rng(1, 1), min_dim=3, max_dim=3)
        grid = default_k_grid(100, 5)
        with pytest.raises(InvalidInputError, match=r"mu=1\.0, ell=10\.0 differ from the sweep's mu=1\.0, ell=100\.0"):
            SweepSpec(family="fedavg_theta", vary="K", grid=grid, mu=1.0, ell=100.0, gamma=1e-3,
                      kappa_source="exact_spectral", population=pop)
        with pytest.raises(InvalidInputError, match="mu=2.0"):
            SweepSpec(family="fedavg_theta", vary="K", grid=grid, mu=2.0, ell=10.0, gamma=1e-3,
                      kappa_source="exact_spectral", population=pop)
        frontier = sweep(SweepSpec(family="fedavg_theta", vary="K", grid=grid, mu=1.0, ell=10.0,
                                   gamma=1e-3, kappa_source="exact_spectral", population=pop))
        assert frontier.points[0].k == 1
        assert frontier.points[0].delta == pytest.approx(0.327, abs=1e-3)

    def test_alpha_sweep(self):
        spec = SweepSpec(
            family="fedavg_theta", vary="alpha", grid=np.array([0.0, 0.5, 1.0]),
            mu=1.0, ell=10.0, gamma=0.02, k=20,
        )
        frontier = sweep(spec)
        assert [p.alpha for p in frontier.points] == [0.0, 0.5, 1.0]

    def test_gamma_sweep_terminal_kappa_above_one(self):
        # L=50, K=100: saturation is incomplete as gamma approaches 1/L
        spec = SweepSpec(
            family="fedavg_theta", vary="gamma",
            grid=default_gamma_grid(0.02 * (1.0 - 1e-9), 40),
            mu=1.0, ell=50.0, k=100,
        )
        frontier = sweep(spec)
        assert frontier.points[-1].kappa > 1.1

    def test_empty_admissible_set(self):
        spec = SweepSpec(
            family="maml_theta", vary="K", grid=np.array([200, 400]),
            mu=1.0, ell=10.0, gamma=0.001,
        )
        with pytest.raises(ConditioningError, match="no admissible"):
            sweep(spec)


def reference_simulated_maml(dim, mu, ell, alpha, gamma, k_grid, seed, optimizer="plain"):
    """The per-K loop simulated_maml_sweep ran before it went through sweep.

    Returns the admitted FrontierPoints and the skipped axis values.
    """
    spectrum = SpectrumBounds(mu=mu, ell=ell, c_radius=0.0)
    kappa0 = ell / mu
    points, skipped = [], []
    for index, k in enumerate(k_grid):
        a = random_spd_with_spectrum(dim, spectrum, child_seed(seed, index))
        pop = Population(
            clients=(ClientModel(a_matrix=a, center=np.zeros(dim)),),
            weights=np.array([1.0]),
            bounds=spectrum,
        )
        try:
            kappa = kappa_exact(pop, alpha, gamma, WeightScheme.last_only(int(k))).kappa_exact
        except ConditioningError:
            skipped.append(float(k))
            continue
        if kappa > kappa0 * (1.0 + 1e-12):
            skipped.append(float(k))
            continue
        points.append(
            FrontierPoint(
                rho=float(rho_from_kappa(kappa, optimizer)),
                delta=float(delta_from_kappa(min(kappa, kappa0), kappa0)),
                kappa=float(kappa),
                kappa_source="exact_spectral",
                alpha=alpha,
                gamma=gamma,
                k=int(k),
                scheme="last_only",
                optimizer=optimizer,
                axis_value=float(k),
            )
        )
    return points, skipped


class TestSimulatedMamlSweep:
    @pytest.mark.parametrize(
        "dim, seed, alpha, gamma, k_grid, optimizer",
        [
            (6, 3, 0.0, 0.001, default_k_grid(1000, 10), "plain"),
            (50, 5, 0.0, 0.001, np.array([300]), "plain"),
            (8, 2, 0.5, 0.02, default_k_grid(10**4, 20), "heavy_ball"),
            # gamma = (2 ell)^-1 up to K = 1e6: most points are skipped, some
            # because the smallest mapped eigenvalue underflows to 0
            (16, 11, 0.0, 0.05, default_k_grid(10**6, 60), "nesterov"),
        ],
    )
    def test_matches_reference_loop(self, dim, seed, alpha, gamma, k_grid, optimizer):
        frontier = simulated_maml_sweep(
            dim=dim, mu=1.0, ell=10.0, alpha=alpha, gamma=gamma, k_grid=k_grid,
            seed=seed, optimizer=optimizer,
        )
        points, skipped = reference_simulated_maml(
            dim, 1.0, 10.0, alpha, gamma, k_grid, seed, optimizer
        )
        assert list(frontier.points) == points
        assert [s.axis_value for s in frontier.skipped] == skipped
        assert all(s.optimizer == "*" for s in frontier.skipped)

    def test_underflow_skip_recorded(self):
        frontier = simulated_maml_sweep(
            dim=16, mu=1.0, ell=10.0, alpha=0.0, gamma=0.05,
            k_grid=default_k_grid(10**6, 60), seed=11,
        )
        # the smallest mapped eigenvalue underflows to 0 at the largest K; the
        # extremes, taken in log space, skip those points for kappa > kappa0
        assert frontier.skipped[-1].reason == "kappa inf exceeds kappa0 10"
        assert all("exceeds kappa0" in s.reason for s in frontier.skipped)


    def test_k1_matches_closed_form(self):
        frontier = simulated_maml_sweep(
            dim=6, mu=1.0, ell=10.0, alpha=0.0, gamma=0.001,
            k_grid=np.array([1]), seed=3,
        )
        point = frontier.points[0]
        assert point.kappa == pytest.approx(10.0, abs=1e-6)
        assert point.delta == pytest.approx(0.0, abs=1e-7)

    def test_matches_closed_form_below_threshold(self):
        k_grid = default_k_grid(90, 12)
        frontier = simulated_maml_sweep(
            dim=8, mu=1.0, ell=10.0, alpha=0.0, gamma=0.001, k_grid=k_grid, seed=5,
        )
        for point in frontier.points:
            closed = kappa_bound(1.0, 10.0, 0.0, 0.001, WeightScheme.last_only(point.k))
            assert abs(point.kappa - closed) <= 1e-6

    def test_departs_beyond_threshold(self):
        frontier = simulated_maml_sweep(
            dim=50, mu=1.0, ell=10.0, alpha=0.0, gamma=0.001,
            k_grid=np.array([300]), seed=5,
        )
        point = frontier.points[0]
        naive_extension = psi(10.0, 0.0, 0.001, 300) / psi(1.0, 0.0, 0.001, 300)
        assert abs(point.kappa - naive_extension) > 1e-3

    def test_dimension_stabilises_dispersion(self):
        # at a K beyond the monotone regime, kappa fluctuates across seeds
        # much less for d=100 than for d=5
        spreads = {}
        for dim in (5, 100):
            values = []
            for seed in range(10):
                frontier = simulated_maml_sweep(
                    dim=dim, mu=1.0, ell=10.0, alpha=0.0, gamma=0.001,
                    k_grid=np.array([300]), seed=seed,
                )
                values.append(frontier.points[0].kappa)
            spreads[dim] = np.std(values)
        assert spreads[100] < spreads[5]

    def test_deterministic_given_seed(self):
        kwargs = dict(dim=5, mu=1.0, ell=10.0, alpha=0.0, gamma=0.001,
                      k_grid=default_k_grid(1000, 8), seed=11)
        f1 = simulated_maml_sweep(**kwargs)
        f2 = simulated_maml_sweep(**kwargs)
        assert [(p.rho, p.delta) for p in f1.points] == [(p.rho, p.delta) for p in f2.points]

    def test_precondition(self):
        with pytest.raises(ConditioningError, match=r"need gamma < 1/\(ell \+ alpha\) = 0\.1, got gamma=0\.2"):
            simulated_maml_sweep(
                dim=5, mu=1.0, ell=10.0, alpha=0.0, gamma=0.2,
                k_grid=np.array([1, 2]), seed=0,
            )


class TestPolylineGeometry:
    def test_point_to_polyline(self):
        line = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert point_to_polyline(np.array([0.5, 0.3]), line) == pytest.approx(0.3)
        assert point_to_polyline(np.array([2.0, 0.0]), line) == pytest.approx(1.0)

    def test_hausdorff_symmetric(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 0.1], [1.0, 0.1]])
        assert polyline_hausdorff(a, b) == pytest.approx(0.1)
        assert polyline_hausdorff(b, a) == pytest.approx(0.1)


class TestSubsetCheck:
    def test_frontier_against_itself(self):
        pts = sweep(fedavg_spec(points=25)).coordinates("plain")
        assert farthest_vertex(pts, pts) == 0.0

    def test_single_point_distance(self):
        frontier = sweep(fedavg_spec(points=25))
        single_spec = SweepSpec(
            family="fedavg_theta", vary="K", grid=np.array([1]),
            mu=1.0, ell=10.0, gamma=0.05,
        )
        single = sweep(single_spec).coordinates("plain")
        assert len(single) == 1
        assert farthest_vertex(single, frontier.coordinates("plain")) <= 1e-12  # K=1 point lies on the curve

    def test_proximal_frontier_is_subset(self):
        base = sweep(fedavg_spec(gamma=0.5 / 10.0, points=300))
        for alpha in (0.5, 1.0, 5.0):
            inner = sweep(
                SweepSpec(
                    family="fedavg_theta", vary="K", grid=default_k_grid(10**6, 40),
                    mu=1.0, ell=10.0, alpha=alpha, gamma=0.5 / (10.0 + alpha),
                )
            )
            distance = farthest_vertex(inner.coordinates("plain"), base.coordinates("plain"))
            assert distance <= 0.01, f"alpha={alpha}: {distance}"


def symmetry_measure(frontier: Frontier, optimizer: str) -> float:
    """Hausdorff distance between a frontier and its reflection across rho = delta."""
    pts = frontier.coordinates(optimizer)
    return polyline_hausdorff(pts, pts[:, ::-1])


class TestSymmetryMeasure:
    def test_diagonal_frontier_is_symmetric(self):
        spec = fedavg_spec(points=10)
        pts = tuple(
            FrontierPoint(
                rho=v, delta=v, kappa=1.0, kappa_source="closed_form",
                alpha=0.0, gamma=0.0, k=1, scheme="first_k", optimizer="plain",
                axis_value=float(i),
            )
            for i, v in enumerate(np.linspace(0.0, 1.0, 5))
        )
        frontier = Frontier(points=pts, spec=spec)
        assert symmetry_measure(frontier, "plain") == 0.0

    def test_heavy_ball_more_symmetric_than_plain(self):
        heavy = sweep(fedavg_spec(points=120, optimizers=("heavy_ball",)))
        plain = sweep(fedavg_spec(points=120, optimizers=("plain",)))
        assert symmetry_measure(heavy, "heavy_ball") < symmetry_measure(plain, "plain")
        # recorded diagnostic: tuned heavy-ball frontiers look mirror-symmetric
        assert symmetry_measure(heavy, "heavy_ball") < 0.01


class TestEmpiricalRateCrosscheck:
    def test_single_step_diag_rate_is_exact(self):
        # gamma = 0: the surrogate Hessian is diag(10, 1) itself
        client = ClientModel(a_matrix=np.diag([10.0, 1.0]), center=np.zeros(2))
        pop = Population.uniform([client], bounds=SpectrumBounds(1.0, 10.0, 0.0))
        measured, _, predicted = empirical_rate_crosscheck(pop, 0.0, 0.0, WeightScheme.single())["plain"]
        assert predicted == pytest.approx(9.0 / 11.0, abs=1e-15)
        assert measured == pytest.approx(predicted, abs=1e-12)

    def test_diag_worst_case_rate_is_exact(self):
        client = ClientModel(a_matrix=np.diag([10.0, 1.0]), center=np.zeros(2))
        pop = Population.uniform([client], bounds=SpectrumBounds(1.0, 10.0, 0.0))
        theta = WeightScheme.first_k(3)
        rates = empirical_rate_crosscheck(pop, 0.0, 0.05, theta)
        assert list(rates) == ["plain", "nesterov", "heavy_ball"]
        for kind, tol in (("plain", 1e-12), ("heavy_ball", 1e-6), ("nesterov", 1e-6)):
            measured, _, predicted = rates[kind]
            assert measured == pytest.approx(predicted, abs=tol)

    def test_heavy_ball_rate_bounded(self):
        pop = rate_check_population(keyed_rng(70, 0))
        theta = WeightScheme.first_k(5)
        measured, _, predicted = empirical_rate_crosscheck(pop, 0.0, 0.4 / pop.bounds.ell, theta)["heavy_ball"]
        assert measured <= predicted + 1e-6

    def test_two_client_heavy_ball_instance(self):
        # a concrete two-client population: two heterogeneous rotated clients
        # put kappa_exact strictly above cond(E[QA]), which bounds the rate
        rng = keyed_rng(4242, 4)
        pop = random_population(
            rng, min_dim=3, max_dim=8, min_clients=2, max_clients=2,
            pin_extremes=True, uniform_weights=True,
        )
        theta = WeightScheme.first_k(int(rng.integers(2, 15)))
        gamma = float(rng.uniform(0.2, 0.8)) / pop.bounds.ell
        measured, _, predicted = empirical_rate_crosscheck(pop, 0.0, gamma, theta)["heavy_ball"]
        assert measured <= predicted + 1e-6


class TestSerialization:
    def test_csv_header_and_shape(self):
        frontier = sweep(fedavg_spec(points=12))
        text = frontier_csv(frontier)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(frontier.points)
        row = lines[1].split(",")
        assert len(row) == 10
        assert row[8] == "first_k"
        assert row[9] == "plain"

    def test_json_payload(self):
        frontier = sweep(fedavg_spec(points=8))
        payload = frontier_json_payload(frontier)
        assert payload["schema_version"] == 1
        assert payload["spec"]["family"] == "fedavg_theta"
        assert len(payload["points"]) == len(frontier.points)
