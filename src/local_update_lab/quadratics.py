"""Client populations of quadratic losses and their exact surrogate losses.

A client i is the quadratic f_i(x) = 0.5 (x - c_i)^T A_i (x - c_i), either
given directly as (A_i, c_i) or induced by a finite example set, where each
example z contributes 0.5 (x - c_z)^T B_z (x - c_z) and

    A_i = mean_z B_z,        c_i = A_i^{-1} mean_z (B_z c_z).

Running K local gradient steps with rate gamma and proximal strength alpha,
and sending back the theta-weighted sum of local gradients, distorts each
client's loss by the matrix polynomial

    Q_i(alpha, gamma, theta) = sum_k theta_k (I - gamma (A_i + alpha I))^(k-1),

turning the optimized objective into the surrogate with client Hessians
Q_i A_i. This module builds populations, distortion matrices, surrogate
Hessians/gradients/minimizers, and measures the gap between the surrogate
and empirical optima. Everything is immutable after construction and all
operations are pure.

The functions here are the matrix route to the surrogate: the Horner
distortion_matrix, then surrogate_hessian/gradient/minimizer. The eigenvalue
route (bounds.scheme_q_eigenvalues, kappa_exact, distance_bound) starts from
the client spectra a Population stores at construction; the verification
suites compare the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matrices as mat
from .errors import (
    ConditioningError,
    DimensionMismatchError,
    InvalidInputError,
    PopulationFormatError,
)
from .matrices import SpectrumBounds

# Slack applied when validating spectra / center norms against bounds.
_BOUNDS_TOL = 1e-9


@dataclass(frozen=True)
class WeightScheme:
    """Coefficients theta_1..theta_K weighting the K local gradients.

    size is the largest index with a positive coefficient, weight the
    coefficient sum. The named constructors cover the schemes of interest:
    first_k(K) sums all K gradients (FedAvg/Reptile style), last_only(K)
    sends only the K-th (FOMAML style), and maml_equivalent(K) is the
    last_only(2K+1) scheme realising exact MAML on quadratics.
    """

    coefficients: np.ndarray
    _structure: tuple[str, int, float] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise InvalidInputError("coefficients must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(coeffs)):
            raise InvalidInputError("coefficients must be finite")
        if np.any(coeffs < 0.0):
            raise InvalidInputError("coefficients must be nonnegative")
        positive = coeffs > 0.0
        if not np.any(positive):
            raise InvalidInputError("at least one coefficient must be positive")
        object.__setattr__(self, "coefficients", coeffs)
        # Classified once here: sweeps query size/structure() many times per
        # grid point on coefficient vectors of length up to 1e6.
        k = coeffs.size - int(np.argmax(positive[::-1]))
        active = coeffs[:k]
        if np.count_nonzero(positive) == 1:
            structure = ("last_only", k, float(active[-1]))
        elif np.all(active == active[0]):
            structure = ("uniform_prefix", k, float(active[0]))
        else:
            structure = ("general", k, float("nan"))
        object.__setattr__(self, "_structure", structure)

    @classmethod
    def first_k(cls, k: int) -> "WeightScheme":
        """Theta_{1:K}: all of the first k gradients, unit weights."""
        if k < 1:
            raise InvalidInputError(f"k must be >= 1, got {k}")
        return cls(np.ones(k))

    @classmethod
    def last_only(cls, k: int) -> "WeightScheme":
        """Theta_K: only the k-th gradient."""
        if k < 1:
            raise InvalidInputError(f"k must be >= 1, got {k}")
        coeffs = np.zeros(k)
        coeffs[-1] = 1.0
        return cls(coeffs)

    @classmethod
    def single(cls) -> "WeightScheme":
        """Theta_1: one plain gradient, no distortion."""
        return cls.first_k(1)

    @classmethod
    def maml_equivalent(cls, k: int) -> "WeightScheme":
        """Theta_{2K+1}: the scheme matching a K-step MAML client."""
        return cls.last_only(2 * k + 1)

    @property
    def size(self) -> int:
        """K(theta): largest index (1-based) with a positive coefficient."""
        return self._structure[1]

    @property
    def weight(self) -> float:
        """w(theta): sum of the coefficients."""
        return float(np.sum(self.coefficients))

    def structure(self) -> tuple[str, int, float]:
        """Classify the scheme for closed-form spectral evaluation.

        Returns ("last_only", K, theta_K), ("uniform_prefix", K, theta), or
        ("general", K, nan). Detection is exact, not approximate.
        """
        return self._structure


@dataclass(frozen=True)
class QuadraticExample:
    """One example z: loss 0.5 (x - c_z)^T B_z (x - c_z).

    B_z must be symmetric but need not be PSD; only the client mean A_i is
    required to satisfy the population spectrum bounds.
    """

    b_matrix: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        b = mat.check_symmetric(self.b_matrix, "b_matrix")
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1 or c.shape[0] != b.shape[0]:
            raise DimensionMismatchError(
                f"center has shape {c.shape}, expected ({b.shape[0]},)"
            )
        if not np.all(np.isfinite(c)):
            raise InvalidInputError("center contains non-finite entries")
        object.__setattr__(self, "b_matrix", b)
        object.__setattr__(self, "center", c)

    @property
    def dim(self) -> int:
        return self.b_matrix.shape[0]


@dataclass(frozen=True)
class ClientModel:
    """A client's quadratic loss (A_i, c_i), optionally backed by examples.

    When examples are present they are sampled uniformly, and consistency of
    (A_i, c_i) with the example moments is validated at construction.
    """

    a_matrix: np.ndarray
    center: np.ndarray
    examples: tuple[QuadraticExample, ...] | None = None

    def __post_init__(self):
        a = mat.check_symmetric(self.a_matrix, "a_matrix")
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1 or c.shape[0] != a.shape[0]:
            raise DimensionMismatchError(
                f"center has shape {c.shape}, expected ({a.shape[0]},)"
            )
        if not np.all(np.isfinite(c)):
            raise InvalidInputError("center contains non-finite entries")
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "center", c)
        if self.examples is not None:
            examples = tuple(self.examples)
            if not examples:
                raise InvalidInputError("examples, when given, must be nonempty")
            if any(ex.dim != a.shape[0] for ex in examples):
                raise DimensionMismatchError("example dimension differs from client dimension")
            a_mean = np.mean([ex.b_matrix for ex in examples], axis=0)
            if np.max(np.abs(a_mean - a)) > _BOUNDS_TOL:
                raise InvalidInputError(
                    "a_matrix does not match the mean of the example matrices "
                    f"(max deviation {np.max(np.abs(a_mean - a)):.3e})"
                )
            bc_mean = np.mean([ex.b_matrix @ ex.center for ex in examples], axis=0)
            center_implied = np.linalg.solve(a, bc_mean)
            if np.max(np.abs(center_implied - c)) > _BOUNDS_TOL:
                raise InvalidInputError(
                    "center does not match A^-1 E[B_z c_z] "
                    f"(max deviation {np.max(np.abs(center_implied - c)):.3e})"
                )
            object.__setattr__(self, "examples", examples)

    @classmethod
    def from_examples(cls, examples) -> "ClientModel":
        """Build (A_i, c_i) from a finite example set by its exact moments."""
        examples = tuple(examples)
        if not examples:
            raise InvalidInputError("need at least one example")
        a = mat.symmetrize(np.mean([ex.b_matrix for ex in examples], axis=0))
        bc = np.mean([ex.b_matrix @ ex.center for ex in examples], axis=0)
        center = np.linalg.solve(a, bc)
        return cls(a_matrix=a, center=center, examples=examples)

    @property
    def dim(self) -> int:
        return self.a_matrix.shape[0]

    def example_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Stacked (n_examples, d, d) matrices and (n_examples, d) centers."""
        if self.examples is None:
            raise InvalidInputError("client has no example set")
        b = np.stack([ex.b_matrix for ex in self.examples])
        c = np.stack([ex.center for ex in self.examples])
        return b, c


@dataclass(frozen=True)
class Population:
    """A finite weighted collection of clients with validated bounds.

    Validation fails fast, naming the violating eigenvalue or center norm:
    each A_i must satisfy mu I <= A_i <= ell I and each ||c_i|| <= c_radius
    (up to 1e-9 slack).

    spectra holds the ascending eigenvalues of every A_i as one read-only
    (n_clients, dim) array, kept from the validating eigendecomposition; the
    eigenvalue route of bounds.py maps it instead of decomposing again.
    """

    clients: tuple[ClientModel, ...]
    weights: np.ndarray
    bounds: SpectrumBounds
    spectra: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        clients = tuple(self.clients)
        if not clients:
            raise InvalidInputError("population needs at least one client")
        dim = clients[0].dim
        if any(cl.dim != dim for cl in clients):
            raise DimensionMismatchError("all clients must share one dimension")
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (len(clients),):
            raise DimensionMismatchError(
                f"weights shape {weights.shape} does not match {len(clients)} clients"
            )
        if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
            raise InvalidInputError("weights must be finite and nonnegative")
        if abs(float(np.sum(weights)) - 1.0) > 1e-12:
            raise InvalidInputError(f"weights sum to {np.sum(weights)!r}, expected 1")
        spectra = np.empty((len(clients), dim))
        for index, client in enumerate(clients):
            dec = mat.eigh(client.a_matrix)
            spectra[index] = dec.eigenvalues
            if dec.lambda_min < self.bounds.mu - _BOUNDS_TOL:
                raise InvalidInputError(
                    f"client {index}: eigenvalue {dec.lambda_min:.12g} below mu={self.bounds.mu}"
                )
            if dec.lambda_max > self.bounds.ell + _BOUNDS_TOL:
                raise InvalidInputError(
                    f"client {index}: eigenvalue {dec.lambda_max:.12g} above ell={self.bounds.ell}"
                )
            norm = float(np.linalg.norm(client.center))
            if norm > self.bounds.c_radius + _BOUNDS_TOL:
                raise InvalidInputError(
                    f"client {index}: center norm {norm:.12g} above c_radius={self.bounds.c_radius}"
                )
        spectra.flags.writeable = False
        object.__setattr__(self, "clients", clients)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "spectra", spectra)

    @classmethod
    def uniform(cls, clients, bounds: SpectrumBounds | None = None) -> "Population":
        """Equal-weight population; bounds are inferred tightly if omitted."""
        clients = tuple(clients)
        if bounds is None:
            bounds = infer_bounds(clients)
        weights = np.full(len(clients), 1.0 / len(clients))
        return cls(clients=clients, weights=weights, bounds=bounds)

    @property
    def dim(self) -> int:
        return self.clients[0].dim

    @property
    def n_clients(self) -> int:
        return len(self.clients)


def infer_bounds(clients) -> SpectrumBounds:
    """Tightest SpectrumBounds satisfied by the given clients."""
    clients = tuple(clients)
    if not clients:
        raise InvalidInputError("need at least one client")
    lambda_mins, lambda_maxs, norms = [], [], []
    for client in clients:
        dec = mat.eigh(client.a_matrix)
        lambda_mins.append(dec.lambda_min)
        lambda_maxs.append(dec.lambda_max)
        norms.append(float(np.linalg.norm(client.center)))
    mu = min(lambda_mins)
    if mu <= 0.0:
        raise InvalidInputError(f"client matrices must be positive definite, got eigenvalue {mu:.12g}")
    return SpectrumBounds(mu=mu, ell=max(lambda_maxs), c_radius=max(norms))


def require_contractive(bounds: SpectrumBounds, alpha: float, gamma: float) -> None:
    """Raise ConditioningError unless gamma < (ell + alpha)^-1.

    Both comparisons are written so that a NaN alpha or gamma fails them.
    """
    if not (gamma >= 0.0 and alpha >= 0.0):
        raise InvalidInputError(f"alpha and gamma must be nonnegative, got alpha={alpha}, gamma={gamma}")
    if not gamma * (bounds.ell + alpha) < 1.0:
        raise ConditioningError(
            f"need gamma < 1/(ell + alpha) = {1.0 / (bounds.ell + alpha):.6g}, got gamma={gamma}"
        )


def distortion_matrix(
    client: ClientModel, alpha: float, gamma: float, theta: WeightScheme
) -> np.ndarray:
    """Distortion matrix Q_i = sum_k theta_k (I - gamma (A_i + alpha I))^(k-1).

    Evaluated as a Horner-style matrix polynomial, O(K d^3); exact polynomial
    in A_i, hence commutes with A_i. Accepts any gamma >= 0; positive
    definiteness of the result needs gamma < (ell + alpha)^-1.
    """
    if gamma < 0.0 or alpha < 0.0:
        raise InvalidInputError("alpha and gamma must be nonnegative")
    coeffs = theta.coefficients[: theta.size]
    d = client.dim
    m = (1.0 - gamma * alpha) * np.eye(d) - gamma * client.a_matrix
    q = coeffs[-1] * np.eye(d)
    for k in range(len(coeffs) - 2, -1, -1):
        q = q @ m
        if coeffs[k] != 0.0:
            q = q + coeffs[k] * np.eye(d)
    return mat.symmetrize(q)


def _client_surrogate_hessian(
    client: ClientModel, alpha: float, gamma: float, theta: WeightScheme
) -> np.ndarray:
    q = distortion_matrix(client, alpha, gamma, theta)
    return mat.multiply_symmetric(q, client.a_matrix)


def surrogate_hessian(
    pop: Population, alpha: float, gamma: float, theta: WeightScheme
) -> np.ndarray:
    """Hessian of the surrogate loss: E_i[Q_i A_i]."""
    h = np.zeros((pop.dim, pop.dim))
    for weight, client in zip(pop.weights, pop.clients):
        h += weight * _client_surrogate_hessian(client, alpha, gamma, theta)
    return mat.symmetrize(h)


def surrogate_gradient(
    pop: Population, x: np.ndarray, alpha: float, gamma: float, theta: WeightScheme
) -> np.ndarray:
    """Gradient of the surrogate loss: E_i[Q_i A_i (x - c_i)]."""
    x = np.asarray(x, dtype=float)
    g = np.zeros(pop.dim)
    for weight, client in zip(pop.weights, pop.clients):
        qa = _client_surrogate_hessian(client, alpha, gamma, theta)
        g += weight * (qa @ (x - client.center))
    return g


def surrogate_minimizer(
    pop: Population, alpha: float, gamma: float, theta: WeightScheme
) -> np.ndarray:
    """Unique minimizer of the surrogate loss, E[Q_i A_i]^-1 E[Q_i A_i c_i].

    Requires gamma < (ell + alpha)^-1, which makes the surrogate strongly
    convex.
    """
    require_contractive(pop.bounds, alpha, gamma)
    h = np.zeros((pop.dim, pop.dim))
    rhs = np.zeros(pop.dim)
    for weight, client in zip(pop.weights, pop.clients):
        qa = _client_surrogate_hessian(client, alpha, gamma, theta)
        h += weight * qa
        rhs += weight * (qa @ client.center)
    return np.linalg.solve(mat.symmetrize(h), rhs)


def empirical_minimizer(pop: Population) -> np.ndarray:
    """Minimizer of the empirical loss, E[A_i]^-1 E[A_i c_i]."""
    h = np.zeros((pop.dim, pop.dim))
    rhs = np.zeros(pop.dim)
    for weight, client in zip(pop.weights, pop.clients):
        h += weight * client.a_matrix
        rhs += weight * (client.a_matrix @ client.center)
    h = mat.symmetrize(h)
    lambda_min = mat.eigh(h).lambda_min
    if lambda_min <= mat.SPD_LAMBDA_MIN:
        raise ConditioningError(
            f"mean client matrix is numerically singular (lambda_min={lambda_min:.3e})"
        )
    return np.linalg.solve(h, rhs)


def minimizer_distance(
    pop: Population, alpha: float, gamma: float, theta: WeightScheme
) -> float:
    """Euclidean distance between the surrogate and empirical minimizers."""
    x_surrogate = surrogate_minimizer(pop, alpha, gamma, theta)
    x_empirical = empirical_minimizer(pop)
    return float(np.linalg.norm(x_surrogate - x_empirical))


def loss_value(pop: Population, x: np.ndarray) -> float:
    """Empirical loss E_i[0.5 (x - c_i)^T A_i (x - c_i)].

    Clients built from examples would add a nonnegative constant; the (A, c)
    form is used so a single client's loss vanishes at its own center.
    """
    x = np.asarray(x, dtype=float)
    total = 0.0
    for weight, client in zip(pop.weights, pop.clients):
        diff = x - client.center
        total += weight * 0.5 * float(diff @ (client.a_matrix @ diff))
    return total


def surrogate_loss_value(
    pop: Population, x: np.ndarray, alpha: float, gamma: float, theta: WeightScheme
) -> float:
    """Surrogate loss E_i[0.5 (x - c_i)^T Q_i A_i (x - c_i)], constant dropped."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for weight, client in zip(pop.weights, pop.clients):
        qa = _client_surrogate_hessian(client, alpha, gamma, theta)
        diff = x - client.center
        total += weight * 0.5 * float(diff @ (qa @ diff))
    return total


# ---------------------------------------------------------------------------
# Population file format
# ---------------------------------------------------------------------------
#
# Line-oriented text, '#' comments and blank lines allowed:
#
#   lul-population v1
#   dim 2
#   bounds mu 1 ell 10 c_radius 1.5
#   clients 2
#   client weight 0.5
#   a 4 0 1          <- lower triangle of A_i, row-major (d*(d+1)/2 values)
#   c 1 0            <- c_i (d values)
#   client weight 0.5
#   a 1 0 1
#   c -1 0
#
# Floats are written with 17 significant digits, so a save/load round trip
# reproduces every value bit-exactly.

_HEADER = "lul-population v1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def dumps_population(pop: Population) -> str:
    lines = [_HEADER]
    lines.append(f"dim {pop.dim}")
    b = pop.bounds
    lines.append(f"bounds mu {_fmt(b.mu)} ell {_fmt(b.ell)} c_radius {_fmt(b.c_radius)}")
    lines.append(f"clients {pop.n_clients}")
    d = pop.dim
    for weight, client in zip(pop.weights, pop.clients):
        lines.append(f"client weight {_fmt(weight)}")
        tril = [client.a_matrix[i, j] for i in range(d) for j in range(i + 1)]
        lines.append("a " + " ".join(_fmt(v) for v in tril))
        lines.append("c " + " ".join(_fmt(v) for v in client.center))
    return "\n".join(lines) + "\n"


def save_population(pop: Population, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_population(pop))


class _LineReader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.cursor = 0

    def next_content(self) -> tuple[int, list[str]]:
        while self.cursor < len(self.lines):
            self.cursor += 1
            raw = self.lines[self.cursor - 1]
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                return self.cursor, stripped.split()
        raise PopulationFormatError(len(self.lines), "unexpected end of file")


def _parse_floats(line_number: int, tokens: list[str], expected: int, what: str) -> np.ndarray:
    if len(tokens) != expected:
        raise PopulationFormatError(
            line_number, f"expected {expected} values for {what}, got {len(tokens)}"
        )
    try:
        return np.array([float(tok) for tok in tokens])
    except ValueError as exc:
        raise PopulationFormatError(line_number, f"bad number in {what}: {exc}") from exc


def loads_population(text: str) -> Population:
    """Parse the population text format; errors name the offending line."""
    reader = _LineReader(text)
    line_number, tokens = reader.next_content()
    if " ".join(tokens) != _HEADER:
        raise PopulationFormatError(line_number, f"expected header '{_HEADER}'")

    line_number, tokens = reader.next_content()
    if len(tokens) != 2 or tokens[0] != "dim":
        raise PopulationFormatError(line_number, "expected 'dim <d>'")
    try:
        dim = int(tokens[1])
    except ValueError as exc:
        raise PopulationFormatError(line_number, f"bad dimension: {tokens[1]}") from exc
    if dim < 1:
        raise PopulationFormatError(line_number, f"dimension must be >= 1, got {dim}")

    line_number, tokens = reader.next_content()
    if len(tokens) != 7 or tokens[0] != "bounds" or tokens[1] != "mu" or tokens[3] != "ell" or tokens[5] != "c_radius":
        raise PopulationFormatError(line_number, "expected 'bounds mu <v> ell <v> c_radius <v>'")
    values = _parse_floats(line_number, [tokens[2], tokens[4], tokens[6]], 3, "bounds")
    try:
        bounds = SpectrumBounds(mu=values[0], ell=values[1], c_radius=values[2])
    except InvalidInputError as exc:
        raise PopulationFormatError(line_number, str(exc)) from exc

    line_number, tokens = reader.next_content()
    if len(tokens) != 2 or tokens[0] != "clients":
        raise PopulationFormatError(line_number, "expected 'clients <n>'")
    try:
        n_clients = int(tokens[1])
    except ValueError as exc:
        raise PopulationFormatError(line_number, f"bad client count: {tokens[1]}") from exc
    if n_clients < 1:
        raise PopulationFormatError(line_number, f"client count must be >= 1, got {n_clients}")

    clients = []
    weights = []
    n_tril = dim * (dim + 1) // 2
    for _ in range(n_clients):
        line_number, tokens = reader.next_content()
        if len(tokens) != 3 or tokens[0] != "client" or tokens[1] != "weight":
            raise PopulationFormatError(line_number, "expected 'client weight <w>'")
        weights.append(float(_parse_floats(line_number, [tokens[2]], 1, "weight")[0]))

        line_number, tokens = reader.next_content()
        if tokens[0] != "a":
            raise PopulationFormatError(line_number, "expected 'a <lower triangle>'")
        tril = _parse_floats(line_number, tokens[1:], n_tril, "matrix lower triangle")
        a = np.zeros((dim, dim))
        pos = 0
        for i in range(dim):
            for j in range(i + 1):
                a[i, j] = tril[pos]
                a[j, i] = tril[pos]
                pos += 1

        line_number, tokens = reader.next_content()
        if tokens[0] != "c":
            raise PopulationFormatError(line_number, "expected 'c <center>'")
        center = _parse_floats(line_number, tokens[1:], dim, "center")
        try:
            clients.append(ClientModel(a_matrix=a, center=center))
        except (InvalidInputError, DimensionMismatchError) as exc:
            raise PopulationFormatError(line_number, str(exc)) from exc

    try:
        return Population(clients=tuple(clients), weights=np.array(weights), bounds=bounds)
    except (InvalidInputError, DimensionMismatchError) as exc:
        raise PopulationFormatError(line_number, str(exc)) from exc


def load_population(path) -> Population:
    with open(path, "r", encoding="utf-8") as handle:
        return loads_population(handle.read())
