"""Convergence-accuracy Pareto frontiers and their diagnostics.

An operating point of a local update method is the pair (rho, delta): the
tuned convergence rate of the server optimizer at the surrogate's condition
number, and the normalised worst-case displacement of the surrogate optimum.
Sweeping K, gamma, or alpha for the two weight families traces a frontier in
[0, 1]^2; the closed-form route uses the phi/psi condition bounds, the
spectral route measures condition numbers of concrete (possibly randomly
generated) populations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds as tb
from . import quadratics as qw
from .engine import RunConfig, auto_tune, round_operator
from .errors import ConditioningError, InvalidInputError
from .matrices import (
    SpectrumBounds, check_count, child_seed, eigh, random_spd_with_spectrum, real_array, spectral_radius,
)
from .quadratics import ClientModel, Population, WeightScheme

FAMILIES = ("fedavg_theta", "maml_theta")
VARY_AXES = ("K", "gamma", "alpha")
KAPPA_SOURCES = ("closed_form", "exact_spectral")

# family -> (FrontierPoint.scheme, the WeightScheme constructor taking K)
_FAMILY_SCHEMES = {
    "fedavg_theta": ("first_k", WeightScheme.first_k),
    "maml_theta": ("last_only", WeightScheme.last_only),
}


def default_k_grid(k_max: int = 10**6, points: int = 60) -> np.ndarray:
    """Logarithmic integer grid 1..k_max without duplicates."""
    if k_max < 1:
        raise InvalidInputError(f"k_max must be >= 1, got {k_max}")
    check_count(points, "points")
    raw = np.logspace(0.0, np.log10(k_max), points)
    return np.unique(np.round(raw).astype(int))


def default_gamma_grid(gamma_max: float, points: int = 60) -> np.ndarray:
    """Logarithmic gamma grid ending at gamma_max, spanning six decades."""
    if not gamma_max > 0.0:
        raise InvalidInputError(f"gamma_max must be positive, got {gamma_max}")
    check_count(points, "points")
    return np.logspace(np.log10(gamma_max) - 6.0, np.log10(gamma_max), points)


@dataclass(frozen=True)
class SweepSpec:
    """One frontier sweep: the family, the varied axis, and fixed parameters.

    Exactly one axis varies (over `grid`); the other parameters are fixed.
    kappa is measured from one of three sources:

    - kappa_source="closed_form": the phi/psi bounds at (mu, ell);
    - kappa_source="exact_spectral" with a population: kappa_exact of that
      population at every grid point; its bounds must equal (mu, ell), which
      also fix kappa0 = ell / mu;
    - kappa_source="exact_spectral" without a population: kappa_exact of a
      fresh one-client population per grid point, a dim x dim random matrix
      with spectrum exactly spanning [mu, ell] drawn from
      child_seed(seed, grid index).
    """

    family: str
    vary: str
    grid: np.ndarray
    mu: float
    ell: float
    alpha: float = 0.0
    gamma: float | None = None
    k: int | None = None
    optimizers: tuple[str, ...] = ("plain",)
    kappa_source: str = "closed_form"
    population: Population | None = None
    dim: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidInputError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.vary not in VARY_AXES:
            raise InvalidInputError(f"unknown vary axis {self.vary!r}, expected one of {VARY_AXES}")
        if self.kappa_source not in KAPPA_SOURCES:
            raise InvalidInputError(
                f"unknown kappa source {self.kappa_source!r}, expected one of {KAPPA_SOURCES}"
            )
        grid = np.atleast_1d(real_array(self.grid, "grid"))
        if grid.ndim != 1:
            raise InvalidInputError(f"grid must be one-dimensional, got shape {grid.shape}")
        if grid.size == 0:
            raise InvalidInputError("grid must be nonempty")
        if not np.all(np.isfinite(grid)):
            raise InvalidInputError("grid contains non-finite values")
        if np.any(np.diff(grid) <= 0.0):
            raise InvalidInputError("grid must be strictly increasing")
        if self.vary == "K":
            if grid[0] < 1:
                raise InvalidInputError("K grid must start at K >= 1")
            fractional = grid[grid != np.floor(grid)]
            if fractional.size:
                raise InvalidInputError(f"K grid must hold integers, got {float(fractional[0])!r}")
            grid = grid.astype(int)
        SpectrumBounds(mu=self.mu, ell=self.ell)  # 0 < mu <= ell < inf, or InvalidInputError
        if self.population is not None and (
            self.population.bounds.mu != self.mu or self.population.bounds.ell != self.ell
        ):
            raise InvalidInputError(
                f"population bounds mu={self.population.bounds.mu}, ell={self.population.bounds.ell} "
                f"differ from the sweep's mu={self.mu}, ell={self.ell}"
            )
        if self.kappa_source == "exact_spectral" and self.population is None and self.dim is None:
            raise InvalidInputError("exact_spectral sweeps need a population or a dim")
        if not self.optimizers or any(o not in tb.OPTIMIZER_KINDS for o in self.optimizers):
            raise InvalidInputError(f"optimizers must be a nonempty subset of {tb.OPTIMIZER_KINDS}")
        if self.vary != "gamma" and self.gamma is None:
            raise InvalidInputError("fixed gamma required unless gamma is the vary axis")
        if self.vary != "K" and self.k is None:
            raise InvalidInputError("fixed K required unless K is the vary axis")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "optimizers", tuple(self.optimizers))


@dataclass(frozen=True)
class FrontierPoint:
    """One (rho, delta) operating point and the hyperparameters behind it."""

    rho: float
    delta: float
    kappa: float
    kappa_source: str
    alpha: float
    gamma: float
    k: int
    scheme: str  # "first_k" or "last_only"
    optimizer: str
    axis_value: float

    def __post_init__(self):
        if not (0.0 <= self.rho <= 1.0 and 0.0 <= self.delta <= 1.0):
            raise InvalidInputError(
                f"frontier point ({self.rho}, {self.delta}) outside the unit square"
            )


@dataclass(frozen=True)
class SkippedPoint:
    """A grid point excluded from the frontier, with the reason recorded."""

    axis_value: float
    optimizer: str
    reason: str


@dataclass(frozen=True)
class Frontier:
    """Ordered frontier points (grouped by optimizer, ordered by the axis)."""

    points: tuple[FrontierPoint, ...]
    spec: SweepSpec
    skipped: tuple[SkippedPoint, ...] = ()

    def series(self, optimizer: str) -> list[FrontierPoint]:
        return [p for p in self.points if p.optimizer == optimizer]

    def coordinates(self, optimizer: str | None = None) -> np.ndarray:
        """(n, 2) array of (rho, delta) pairs for one optimizer series."""
        if optimizer is None:
            if len(self.spec.optimizers) != 1:
                raise InvalidInputError("frontier has several optimizer series; name one")
            optimizer = self.spec.optimizers[0]
        pts = self.series(optimizer)
        return np.array([[p.rho, p.delta] for p in pts]).reshape(len(pts), 2)


def _resolve_point(spec: SweepSpec, axis_value) -> tuple[float, float, int]:
    alpha, gamma, k = spec.alpha, spec.gamma, spec.k
    if spec.vary == "K":
        k = int(axis_value)
    elif spec.vary == "gamma":
        gamma = float(axis_value)
    else:
        alpha = float(axis_value)
    return float(alpha), float(gamma), int(k)


def _point_population(spec: SweepSpec, index: int) -> Population:
    if spec.population is not None:
        return spec.population
    spectrum = SpectrumBounds(mu=spec.mu, ell=spec.ell, c_radius=0.0)
    a = random_spd_with_spectrum(spec.dim, spectrum, child_seed(spec.seed, index))
    return Population(
        clients=(ClientModel(a_matrix=a, center=np.zeros(spec.dim)),),
        weights=np.array([1.0]),
        bounds=spectrum,
    )


def sweep(spec: SweepSpec) -> Frontier:
    """Trace the frontier of a sweep, one point per admissible grid value.

    The all-gradients family requires gamma < (ell + alpha)^-1 at every grid
    point and raises otherwise. A point whose kappa source raises
    ConditioningError (the psi bound outside gamma < (K ell + alpha)^-1, a
    spectral point outside gamma < (ell + alpha)^-1), and a point whose kappa
    exceeds kappa0 (so delta leaves [0, 1]), is skipped with its reason
    recorded; a last-gradient spectral point whose mapped eigenvalues
    underflow gets its kappa from log space, inf when that overflows. An
    empty admissible set is an error.
    """
    if spec.family == "fedavg_theta":
        # The grid increases strictly, so its last point has the largest
        # gamma (ell + alpha) of all.
        alpha, gamma, _ = _resolve_point(spec, spec.grid[-1])
        qw.require_contractive(SpectrumBounds(mu=spec.mu, ell=spec.ell), alpha, gamma)
    kappa0 = spec.ell / spec.mu
    scheme, family_theta = _FAMILY_SCHEMES[spec.family]
    points: list[FrontierPoint] = []
    skipped: list[SkippedPoint] = []
    for index, axis_value in enumerate(spec.grid):
        alpha, gamma, k = _resolve_point(spec, axis_value)
        theta = family_theta(k)
        try:
            if spec.kappa_source == "closed_form":
                kappa = tb.kappa_bound(spec.mu, spec.ell, alpha, gamma, theta)
            else:
                kappa = tb.kappa_exact(_point_population(spec, index), alpha, gamma, theta).kappa_exact
        except ConditioningError as exc:
            skipped.append(SkippedPoint(float(axis_value), "*", str(exc)))
            continue
        if kappa > kappa0 * (1.0 + 1e-12):
            skipped.append(
                SkippedPoint(float(axis_value), "*", f"kappa {kappa:.6g} exceeds kappa0 {kappa0:.6g}")
            )
            continue
        delta = tb.delta_from_kappa(min(kappa, kappa0), kappa0)
        for kind in spec.optimizers:
            rho = tb.rho_from_kappa(kappa, kind)
            points.append(
                FrontierPoint(
                    rho=float(rho),
                    delta=float(delta),
                    kappa=float(kappa),
                    kappa_source=spec.kappa_source,
                    alpha=alpha,
                    gamma=gamma,
                    k=k,
                    scheme=scheme,
                    optimizer=kind,
                    axis_value=float(axis_value),
                )
            )
    if not points:
        raise ConditioningError("no admissible grid point; frontier is empty")
    points.sort(key=lambda p: (spec.optimizers.index(p.optimizer), p.axis_value))
    return Frontier(points=tuple(points), spec=spec, skipped=tuple(skipped))


def simulated_maml_sweep(
    dim: int,
    mu: float,
    ell: float,
    alpha: float,
    gamma: float,
    k_grid: np.ndarray,
    seed: int,
    optimizer: str = "plain",
) -> Frontier:
    """Last-gradient frontier measured on fresh random matrices.

    The random-matrix source of sweep: for each K on the grid a new random
    symmetric matrix with spectrum exactly spanning [mu, ell] is drawn
    (child seed from (seed, grid index)) and kappa is measured from its
    mapped spectrum. Valid for any gamma < (ell + alpha)^-1, including the
    non-monotone regime where the closed-form psi bound does not apply;
    points whose measured kappa exceeds kappa0 are skipped with a recorded
    reason, also where the mapped eigenvalues underflow float64 and kappa
    is measured in log space.
    """
    qw.require_contractive(SpectrumBounds(mu=mu, ell=ell), alpha, gamma)
    return sweep(
        SweepSpec(
            family="maml_theta",
            vary="K",
            grid=k_grid,
            mu=mu,
            ell=ell,
            alpha=alpha,
            gamma=gamma,
            optimizers=(optimizer,),
            kappa_source="exact_spectral",
            dim=dim,
            seed=seed,
        )
    )


# ---------------------------------------------------------------------------
# Polyline geometry
# ---------------------------------------------------------------------------


def _point_segment_distance(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def point_to_polyline(p: np.ndarray, polyline: np.ndarray) -> float:
    """Distance from a point to a polyline given as an (n, 2) vertex array."""
    polyline = np.asarray(polyline, dtype=float)
    if polyline.ndim != 2 or polyline.shape[0] == 0:
        raise InvalidInputError("polyline must be a nonempty (n, 2) array")
    if polyline.shape[0] == 1:
        return float(np.linalg.norm(p - polyline[0]))
    return min(
        _point_segment_distance(p, polyline[i], polyline[i + 1])
        for i in range(polyline.shape[0] - 1)
    )


def polyline_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two polylines (vertex-sampled)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d_ab = max(point_to_polyline(p, b) for p in a)
    d_ba = max(point_to_polyline(p, a) for p in b)
    return max(d_ab, d_ba)


@dataclass(frozen=True)
class SubsetReport:
    """Result of checking one frontier against another's polyline."""

    max_distance: float
    tol: float
    passed: bool
    n_points: int


def frontier_subset_check(inner: Frontier, outer: Frontier, tol: float = 0.01) -> SubsetReport:
    """Check every inner point lies within tol of the outer polyline.

    Both frontiers must be single-optimizer with the same optimizer and the
    same (mu, ell); alpha/gamma/K may differ (that is the point).
    """
    if len(inner.spec.optimizers) != 1 or len(outer.spec.optimizers) != 1:
        raise InvalidInputError("subset check needs single-optimizer frontiers")
    if inner.spec.optimizers != outer.spec.optimizers:
        raise InvalidInputError("subset check needs matching optimizers")
    if (inner.spec.mu, inner.spec.ell) != (outer.spec.mu, outer.spec.ell):
        raise InvalidInputError("subset check needs matching (mu, ell)")
    inner_pts = inner.coordinates()
    outer_pts = outer.coordinates()
    max_distance = max(point_to_polyline(p, outer_pts) for p in inner_pts)
    return SubsetReport(
        max_distance=float(max_distance),
        tol=float(tol),
        passed=bool(max_distance <= tol),
        n_points=len(inner_pts),
    )


def symmetry_measure(frontier: Frontier) -> float:
    """Hausdorff distance between a frontier and its reflection across rho = delta.

    Diagnostic only (the reflection symmetry of tuned heavy-ball frontiers is
    an open conjecture); never used as a gate.
    """
    pts = frontier.coordinates()
    reflected = pts[:, ::-1]
    return polyline_hausdorff(pts, reflected)


def empirical_rate_crosscheck(
    pop: Population, alpha: float, gamma: float, theta: WeightScheme
) -> dict[str, tuple[float, float, float]]:
    """{kind: (rho_measured, rho_tuned, rho_predicted)} for each auto-tuned server optimizer.

    Every optimizer of bounds.OPTIMIZER_KINDS is tuned on the measured
    surrogate Hessian H, whose eigh and kappa_exact are computed once for
    all three. rho_measured is the spectral radius of the engine's
    deterministic round operator, and rho_tuned the Table-style rate at
    cond(H): Theorem 3 says they are equal, which eig resolves to about
    sqrt(eps) (tuned momentum operators have double eigenvalues).
    rho_predicted is the rate at kappa_exact >= cond(H), so it bounds both.
    """
    kappa = tb.kappa_exact(pop, alpha, gamma, theta).kappa_exact
    dec = eigh(qw.surrogate_hessian(pop, alpha, gamma, theta))
    cfg = RunConfig(alpha=alpha, gamma=gamma, theta=theta, rounds=1)
    rates = {}
    for kind in tb.OPTIMIZER_KINDS:
        opt = auto_tune(kind, dec.lambda_max, dec.lambda_min)
        rho_measured = spectral_radius(round_operator(pop, cfg, opt))
        rho_tuned = tb.rho_from_kappa(dec.lambda_max / dec.lambda_min, kind)
        rates[kind] = (float(rho_measured), float(rho_tuned), float(tb.rho_from_kappa(kappa, kind)))
    return rates


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

CSV_HEADER = "axis_value,rho,delta,kappa,kappa_source,alpha,gamma,K,scheme,optimizer"
# One frontier point as (CSV column and JSON key, FrontierPoint field): each
# field is its column in lower case.
_POINT_FIELDS = tuple((column, column.lower()) for column in CSV_HEADER.split(","))


def frontier_csv(frontier: Frontier) -> str:
    lines = [CSV_HEADER]
    for p in frontier.points:
        values = (getattr(p, field) for _, field in _POINT_FIELDS)
        lines.append(",".join(format(v, ".17g") if isinstance(v, float) else str(v) for v in values))
    return "\n".join(lines) + "\n"


def frontier_json_payload(frontier: Frontier) -> dict:
    spec = frontier.spec
    return {
        "schema_version": 1,
        "spec": {
            "family": spec.family,
            "vary": spec.vary,
            "mu": spec.mu,
            "ell": spec.ell,
            "alpha": spec.alpha,
            "gamma": spec.gamma,
            "k": spec.k,
            "optimizers": list(spec.optimizers),
            "kappa_source": spec.kappa_source,
            "dim": spec.dim,
            "seed": spec.seed,
            "grid_size": int(frontier.spec.grid.size),
        },
        "points": [
            {column: getattr(p, field) for column, field in _POINT_FIELDS} for p in frontier.points
        ],
        "skipped": [
            {"axis_value": s.axis_value, "optimizer": s.optimizer, "reason": s.reason}
            for s in frontier.skipped
        ],
    }
