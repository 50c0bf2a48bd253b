"""Client populations of quadratic losses and their exact surrogate losses.

A client i is the quadratic f_i(x) = 0.5 (x - c_i)^T A_i (x - c_i), either
given directly as (A_i, c_i) or induced by a finite example set, where each
example z contributes 0.5 (x - c_z)^T B_z (x - c_z) and

    A_i = mean_z B_z,        c_i = A_i^{-1} mean_z (B_z c_z),

both moments from one stacked sum (_example_moments).

Running K local gradient steps with rate gamma and proximal strength alpha,
and sending back the theta-weighted sum of local gradients, distorts each
client's loss by the matrix polynomial

    Q_i(alpha, gamma, theta) = sum_k theta_k (I - gamma (A_i + alpha I))^(k-1),

turning the optimized objective into the surrogate with client Hessians
Q_i A_i. This module builds populations, distortion matrices, surrogate
Hessians/gradients/minimizers, and measures the gap between the surrogate
and empirical optima. Everything is immutable after construction and all
operations are pure.

The matrix route to the surrogate lives here: distortion_matrix builds the
clients' Q_i from their eigenpairs, Q_i = V_i diag(q(lam_i)) V_i^T with the
one eigenvalue map q of scheme_q_eigenvalues, so Q_i has one definition and
a surrogate system costs the same at every K. surrogate_hessian, gradient
and minimizer sum Q_i A_i over the clients in index order, bit-identical to
evaluating each client alone; empirical_minimizer sums A_i in the same loop,
the theta = (1) case. One slice loop, _batches, cuts a stack for both eigh
loops, and every symmetrisation is matrices.symmetrize. The eigenvalue route
(kappa_exact, distance_bound in bounds.py) maps the client spectra a
Population stores at construction through the same q, and the engine's
literal K-step loop is the independent route the verification suites
compare both against. Each surrogate query builds its system afresh; a
Population stores no eigenvectors and no surrogate.

The named weight schemes (first_k, last_only, single, maml_equivalent) are
records (kind, K, theta), O(1) in K: their coefficient vector is built when
first read, which only the engine does, so the map and its K sweeps to 1e6
allocate nothing of length K.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import FrozenInstanceError, InitVar, dataclass, field

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

# Population validation and the surrogate functions decompose a stack in
# _batches of at most this many matrix entries: one eigh call for the small
# populations of the verification suites, and no second copy of a large
# population's matrices (plus their eigenvectors) held at once. The size
# changes neither bits nor time, only memory: at 65536 entries, loading a
# d = 48, n = 32 file held 547 kB above what it kept, not 212 kB.
_EIGH_BATCH_ENTRIES = 4096

# Summation is exact and cheap up to this K; beyond it the geometric closed
# form avoids accumulating K rounding steps.
_PHI_SUMMATION_MAX_K = 64


class WeightScheme:
    """Coefficients theta_1..theta_K weighting the K local gradients.

    size is the largest index with a positive coefficient. The named
    constructors cover the schemes of interest: first_k(K) sums all K
    gradients (FedAvg/Reptile style), last_only(K) sends only the K-th
    (FOMAML style), and maml_equivalent(K) is the last_only(2K+1) scheme
    realising exact MAML on quadratics.

    A named scheme is its record (kind, K, theta) and takes O(1) memory in
    K: size and structure() read the record, and the read-only coefficient
    vector is built the first time coefficients is read (by the engine). A
    general scheme copies and classifies its coefficients once. Two schemes
    are equal when they weight the first K(theta) gradients alike: equal
    structure(), and for a general scheme equal active coefficients
    (trailing zeros are inert). scheme_q_eigenvalues maps eigenvalues of A
    through a scheme's q.
    """

    def __init__(self, coefficients):
        coeffs = np.array(mat.real_array(coefficients, "coefficients"), ndmin=1)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise InvalidInputError("coefficients must be a nonempty 1-d sequence")
        if not np.isfinite(coeffs).all():
            raise InvalidInputError("coefficients must be finite")
        if (coeffs < 0.0).any():
            raise InvalidInputError("coefficients must be nonnegative")
        positive = coeffs > 0.0
        if not positive.any():
            raise InvalidInputError("at least one coefficient must be positive")
        coeffs.flags.writeable = False
        # Classified once here: size and structure() are read many times per scheme.
        k = coeffs.size - int(positive[::-1].argmax())
        active = coeffs[:k]
        if np.count_nonzero(positive) == 1:
            structure = ("last_only", k, float(active[-1]))
        elif (active == active[0]).all():
            structure = ("uniform_prefix", k, float(active[0]))
        else:
            structure = ("general", k, float("nan"))
        object.__setattr__(self, "_structure", structure)
        object.__setattr__(self, "_coefficients", coeffs)

    @classmethod
    def _named(cls, kind: str, k: int) -> "WeightScheme":
        k = mat.check_count(k, "k")
        if k == 1:
            kind = "last_only"  # one positive coefficient, as __init__ classifies it
        scheme = cls.__new__(cls)
        object.__setattr__(scheme, "_structure", (kind, k, 1.0))
        object.__setattr__(scheme, "_coefficients", None)
        return scheme

    @classmethod
    def first_k(cls, k: int) -> "WeightScheme":
        """Theta_{1:K}: all of the first k gradients, unit weights."""
        return cls._named("uniform_prefix", k)

    @classmethod
    def last_only(cls, k: int) -> "WeightScheme":
        """Theta_K: only the k-th gradient."""
        return cls._named("last_only", k)

    @classmethod
    def single(cls) -> "WeightScheme":
        """Theta_1: one plain gradient, no distortion."""
        return cls.first_k(1)

    @classmethod
    def maml_equivalent(cls, k: int) -> "WeightScheme":
        """Theta_{2K+1}: the scheme matching a K-step MAML client, K >= 1."""
        k = mat.check_count(k, "k")
        return cls.last_only(2 * k + 1)

    @property
    def coefficients(self) -> np.ndarray:
        """The read-only vector theta_1..theta_K (built on first read for a named scheme)."""
        coeffs = self._coefficients
        if coeffs is None:
            kind, k, _ = self._structure
            if kind == "uniform_prefix":
                coeffs = np.ones(k)
            else:
                coeffs = np.zeros(k)
                coeffs[-1] = 1.0
            coeffs.flags.writeable = False
            object.__setattr__(self, "_coefficients", coeffs)
        return coeffs

    @property
    def size(self) -> int:
        """K(theta): largest index (1-based) with a positive coefficient."""
        return self._structure[1]

    def structure(self) -> tuple[str, int, float]:
        """Classify the scheme for closed-form spectral evaluation.

        Returns ("last_only", K, theta_K), ("uniform_prefix", K, theta), or
        ("general", K, nan). Detection is exact, not approximate.
        """
        return self._structure

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightScheme):
            return NotImplemented
        kind, k, coeff = self._structure
        if (kind, k) != other._structure[:2]:
            return False
        if kind == "general":
            return bool(np.array_equal(self._coefficients[:k], other._coefficients[:k]))
        return coeff == other._structure[2]

    def __repr__(self) -> str:
        kind, k, coeff = self._structure
        if kind == "general":
            return f"WeightScheme({self._coefficients[:k]!r})"
        return f"WeightScheme({kind}, K={k}, theta={coeff!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _geometric_sums(xi: np.ndarray, k: int) -> np.ndarray:
    """sum_{j=0}^{k-1} xi^j for a ratio xi, or elementwise for an array of them.

    Small k is a Horner polynomial. Beyond _PHI_SUMMATION_MAX_K the closed
    form is used; for 0 < xi it computes (1 - xi^k) via expm1/log1p, since
    the plain form cancels catastrophically when xi is just below 1 (tiny
    gamma).
    """
    xi = np.asarray(xi, dtype=float)
    if k <= _PHI_SUMMATION_MAX_K:
        return np.polynomial.polynomial.polyval(xi, np.ones(k))
    sums = np.full(xi.shape, float(k))
    positive = (xi > 0.0) & (xi != 1.0)
    other = ~(xi > 0.0)
    sums[positive] = -np.expm1(k * np.log1p(xi[positive] - 1.0)) / (1.0 - xi[positive])
    sums[other] = (1.0 - xi[other] ** k) / (1.0 - xi[other])
    return sums


def scheme_q_eigenvalues(
    lams: np.ndarray, alpha: float, gamma: float, theta: WeightScheme
) -> np.ndarray:
    """Eigenvalues q(lam) of the distortion matrix at matrix eigenvalues lams.

    The one definition of q: distortion_matrix maps each client's
    eigenvalues through it, and bounds.py's eigenvalue route the stored
    spectra. lams may be a float or have any shape; a Population's
    (n_clients, dim) spectra map in one call, a float in scalar arithmetic.
    Uses the closed geometric form for the two named weight families (O(1)
    per eigenvalue even for K ~ 1e6) and direct polynomial evaluation for a
    general theta.
    """
    lams = np.asarray(lams, dtype=float)[()]
    xi = 1.0 - gamma * (lams + alpha)
    kind, k, coeff = theta.structure()
    if kind == "last_only":
        return coeff * xi ** (k - 1)
    if kind == "uniform_prefix":
        return coeff * _geometric_sums(xi, k)
    return np.polynomial.polynomial.polyval(xi, theta.coefficients[:k])


def _own_matrix_and_center(model, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Store read-only validated copies of model's matrix field `name` and center; return them."""
    matrix = mat.check_symmetric(getattr(model, name), name, copy=True)
    center = mat.real_array(model.center, "center", copy=True)
    if center.shape != (matrix.shape[0],):
        raise DimensionMismatchError(f"center has shape {center.shape}, expected ({matrix.shape[0]},)")
    if not np.isfinite(center).all():
        raise InvalidInputError("center contains non-finite entries")
    matrix.flags.writeable = center.flags.writeable = False
    object.__setattr__(model, name, matrix)
    object.__setattr__(model, "center", center)
    return matrix, center


def _view(cls, **fields):
    """An instance of the frozen dataclass cls holding fields as given, unchecked.

    For the clients and examples that a population or a client builds over
    its own validated, read-only stacks: their arrays are views of a stack.
    """
    view = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(view, name, value)
    return view


def _read_only_stack(arrays) -> np.ndarray:
    stack = np.stack(arrays)
    stack.flags.writeable = False
    return stack


def _batches(stack: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive slices of an (n, d, d) stack, each of at most _EIGH_BATCH_ENTRIES entries (one matrix at least)."""
    step = max(1, _EIGH_BATCH_ENTRIES // stack.shape[-1] ** 2)
    return (stack[i : i + step] for i in range(0, len(stack), step))


def _example_moments(b_stack: np.ndarray, c_stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mean_z B_z, mean_z B_z c_z) of (m, d, d) and (m, d) example stacks, each B_z c_z as if alone."""
    return b_stack.mean(axis=0), (b_stack @ c_stack[..., None]).mean(axis=0)[..., 0]


@dataclass(frozen=True)
class QuadraticExample:
    """One example z: loss 0.5 (x - c_z)^T B_z (x - c_z).

    B_z must be symmetric but need not be PSD; only the client mean A_i is
    required to satisfy the population spectrum bounds. b_matrix and center
    are read-only copies of the caller's arrays; the examples a client holds
    are views of its example stacks instead.
    """

    b_matrix: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        _own_matrix_and_center(self, "b_matrix")

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.b_matrix, other.b_matrix) and np.array_equal(self.center, other.center)

    @property
    def dim(self) -> int:
        return self.b_matrix.shape[0]


@dataclass(frozen=True)
class ClientModel:
    """A client's quadratic loss (A_i, c_i), optionally backed by examples.

    ClientModel(a_matrix, center) is a plain client; from_examples is the one
    way to build a client with examples, which the engine samples uniformly.
    a_matrix and center are read-only copies of the caller's arrays, so a
    later write to those arrays cannot leave a validated object stale; the
    clients of a Population are views of its stacks instead.

    A client with examples stores them once, as the read-only stacks
    example_matrices (m, d, d) and example_centers (m, d); its examples are
    views of those stacks, which the engine's mini-batch kernel reads.
    """

    a_matrix: np.ndarray
    center: np.ndarray
    examples: tuple[QuadraticExample, ...] | None = field(default=None, init=False)
    example_matrices: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)
    example_centers: np.ndarray | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        _own_matrix_and_center(self, "a_matrix")

    @classmethod
    def from_examples(cls, examples) -> "ClientModel":
        """Build (A_i, c_i) from a finite example set by its exact moments."""
        examples = tuple(examples)
        if not examples:
            raise InvalidInputError("need at least one example")
        if any(ex.dim != examples[0].dim for ex in examples):
            raise DimensionMismatchError("all examples must share one dimension")
        b_stack = _read_only_stack([ex.b_matrix for ex in examples])
        c_stack = _read_only_stack([ex.center for ex in examples])
        a_mean, bc = _example_moments(b_stack, c_stack)
        a = mat.symmetrize(a_mean)
        try:
            center = np.linalg.solve(a, bc)
        except np.linalg.LinAlgError as exc:
            raise ConditioningError("mean example matrix is singular") from exc
        client = cls(a_matrix=a, center=center)
        object.__setattr__(client, "examples", tuple(
            _view(QuadraticExample, b_matrix=b, center=c) for b, c in zip(b_stack, c_stack)
        ))
        object.__setattr__(client, "example_matrices", b_stack)
        object.__setattr__(client, "example_centers", c_stack)
        return client

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            np.array_equal(self.a_matrix, other.a_matrix)
            and np.array_equal(self.center, other.center)
            and self.examples == other.examples
        )

    @property
    def dim(self) -> int:
        return self.a_matrix.shape[0]


def _client_view(a_matrix: np.ndarray, center: np.ndarray, source: ClientModel | None) -> ClientModel:
    """A client over a population's stack rows (a_matrix, center), with source's examples if any."""
    if source is None:
        return _view(ClientModel, a_matrix=a_matrix, center=center, examples=None,
                     example_matrices=None, example_centers=None)
    return _view(ClientModel, a_matrix=a_matrix, center=center, examples=source.examples,
                 example_matrices=source.example_matrices, example_centers=source.example_centers)


def _validated_stacks(matrices, centers) -> tuple[np.ndarray, np.ndarray]:
    """Client matrices (n, d, d) and centers (n, d) under ClientModel's checks, made on every client at once.

    The error names the first bad client, its matrix before its center; the
    matrices' rule is check_symmetric_stack's.
    """
    label = "client {i}: a_matrix".format
    matrices = mat.real_array(matrices, "matrices")
    centers = mat.real_array(centers, "centers")
    if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2] or 0 in matrices.shape:
        raise DimensionMismatchError(f"matrices must be a nonempty (n, d, d) stack, got shape {matrices.shape}")
    if centers.shape != matrices.shape[:2]:
        raise DimensionMismatchError(f"centers have shape {centers.shape}, expected {matrices.shape[:2]}")
    bad_centers = ~np.isfinite(centers).all(axis=1)
    if bad_centers.any():
        i = int(bad_centers.argmax())
        mat.check_symmetric_stack(matrices[: i + 1], label)  # a bad matrix up to client i is named first
        raise InvalidInputError(f"client {i}: center contains non-finite entries")
    return mat.check_symmetric_stack(matrices, label), centers


@dataclass(frozen=True)
class Population:
    """A finite weighted collection of clients with validated bounds.

    Validation fails fast, naming the violating eigenvalue or center norm:
    each A_i must satisfy mu I <= A_i <= ell I and each ||c_i|| <= c_radius
    (up to 1e-9 slack). bounds=None takes the tightest bounds the clients
    satisfy.

    The client matrices and centers are stored once, as the read-only stacks
    matrices (n_clients, dim, dim) and centers (n_clients, dim), and clients
    holds views of them (with each client's own example stacks): a population
    built from clients copies their arrays into the stacks and keeps no
    per-client copy. Stacks given directly are validated in one vectorized
    pass: from_stacks copies the caller's, and load_population parses a file
    into the stacks it hands over.

    spectra holds the ascending eigenvalues of every A_i as one read-only
    (n_clients, dim) array, kept from the validating eigendecomposition
    (batched eigh over slices of the matrix stack, bit-identical to one call
    per client); the eigenvalue route of bounds.py maps it instead of
    decomposing again.

    weights is a read-only copy of the caller's array. Two populations are
    equal when their clients, weights and bounds are.
    """

    clients: tuple[ClientModel, ...] | None
    weights: np.ndarray
    bounds: SpectrumBounds | None
    # (matrices, centers) arrays handed over by from_stacks or the loader, in place of clients
    _stacks: InitVar[tuple[np.ndarray, np.ndarray] | None] = None
    matrices: np.ndarray = field(init=False, compare=False, repr=False)
    centers: np.ndarray = field(init=False, compare=False, repr=False)
    spectra: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self, _stacks):
        if _stacks is None:
            clients = tuple(self.clients)
            if not clients:
                raise InvalidInputError("population needs at least one client")
            dim = clients[0].dim
            if any(cl.dim != dim for cl in clients):
                raise DimensionMismatchError("all clients must share one dimension")
            matrices = np.stack([client.a_matrix for client in clients])
            centers = np.stack([client.center for client in clients])
        else:
            if self.clients is not None:
                raise InvalidInputError("a population takes clients or stacks, not both")
            matrices, centers = _validated_stacks(*_stacks)
            clients = (None,) * len(matrices)
        weights = mat.real_array(self.weights, "weights", copy=True)
        if weights.shape != (len(clients),):
            raise DimensionMismatchError(
                f"weights shape {weights.shape} does not match {len(clients)} clients"
            )
        if (weights < 0.0).any() or not np.isfinite(weights).all():
            raise InvalidInputError("weights must be finite and nonnegative")
        mat.check_sums_to_one(weights, "weights")
        batches = _batches(matrices)
        spectra = np.concatenate([np.linalg.eigh(batch)[0] for batch in batches])
        norms = np.array([mat.euclidean_norm(center) for center in centers])
        lowest, highest = spectra[:, 0], spectra[:, -1]
        bounds = self.bounds
        if bounds is None:
            mu = float(lowest.min())
            if mu <= 0.0:
                raise InvalidInputError(f"client matrices must be positive definite, got eigenvalue {mu:.12g}")
            bounds = SpectrumBounds(mu=mu, ell=float(highest.max()), c_radius=float(norms.max()))
        below = lowest < bounds.mu - _BOUNDS_TOL
        above = highest > bounds.ell + _BOUNDS_TOL
        outside = norms > bounds.c_radius + _BOUNDS_TOL
        violating = below | above | outside
        if violating.any():
            index = int(violating.argmax())  # the first violating client, checked in this order
            if below[index]:
                raise InvalidInputError(
                    f"client {index}: eigenvalue {lowest[index]:.12g} below mu={bounds.mu}"
                )
            if above[index]:
                raise InvalidInputError(
                    f"client {index}: eigenvalue {highest[index]:.12g} above ell={bounds.ell}"
                )
            raise InvalidInputError(
                f"client {index}: center norm {norms[index]:.12g} above c_radius={bounds.c_radius}"
            )
        for array in (matrices, centers, spectra, weights):
            array.flags.writeable = False
        views = tuple(_client_view(a, c, client) for a, c, client in zip(matrices, centers, clients))
        object.__setattr__(self, "clients", views)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "spectra", spectra)

    @classmethod
    def from_stacks(cls, matrices, centers, weights, bounds: SpectrumBounds | None = None) -> "Population":
        """Population of the clients (matrices[i], centers[i]) without examples.

        The stacks are validated in one vectorized pass, and the population
        keeps read-only copies of them.
        """
        return cls(None, weights, bounds, _stacks=(
            mat.real_array(matrices, "matrices", copy=True), mat.real_array(centers, "centers", copy=True),
        ))

    @classmethod
    def uniform(cls, clients, bounds: SpectrumBounds | None = None) -> "Population":
        """Equal-weight population; bounds are inferred tightly if omitted."""
        clients = tuple(clients)
        weights = np.full(len(clients), 1.0 / max(len(clients), 1))
        return cls(clients=clients, weights=weights, bounds=bounds)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.clients == other.clients
            and np.array_equal(self.weights, other.weights)
            and self.bounds == other.bounds
        )

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def n_clients(self) -> int:
        return len(self.matrices)


def require_contractive(bounds: SpectrumBounds, alpha: float, gamma: float) -> None:
    """Raise ConditioningError unless gamma < (ell + alpha)^-1.

    Both comparisons are written so that a NaN alpha or gamma fails them.
    """
    mat.check_rates(alpha, gamma)
    if not gamma * (bounds.ell + alpha) < 1.0:
        raise ConditioningError(
            f"need gamma < 1/(ell + alpha) = {1.0 / (bounds.ell + alpha):.6g}, got gamma={gamma}"
        )


def distortion_matrix(a, alpha: float, gamma: float, theta: WeightScheme) -> np.ndarray:
    """Distortion matrix Q = sum_k theta_k (I - gamma (A + alpha I))^(k-1), symmetrised.

    Q is a polynomial in A, so it has A's eigenvectors V and the eigenvalues
    q(lam) of scheme_q_eigenvalues: Q = V diag(q(lam)) V^T, from one eigh of
    a at the same cost for every K (Higham, Functions of Matrices, 2008). a
    is one symmetric (d, d) client matrix or an (n, d, d) stack of them, and
    the result has its shape. eigh and the matmul run the same computation
    per matrix, so every slice of a stacked call is bit-identical to that
    client's matrix passed alone. Accepts any finite gamma >= 0; positive
    definiteness needs gamma < (ell + alpha)^-1.
    """
    a = mat.real_array(a, "a")
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise DimensionMismatchError(f"a must be a (d, d) matrix or an (n, d, d) stack, got shape {a.shape}")
    mat.check_rates(alpha, gamma)
    d = a.shape[-1]
    a = mat.check_symmetric_stack(a.reshape(-1, d, d), ("a[{i}]" if a.ndim == 3 else "a").format).reshape(a.shape)
    lams, v = np.linalg.eigh(a)
    q = scheme_q_eigenvalues(lams, alpha, gamma, theta)
    return mat.symmetric_from_eigenpairs(v, q)


def _surrogate_hessians(
    pop: Population, alpha: float, gamma: float, theta: WeightScheme
) -> Iterator[np.ndarray]:
    """Every client's symmetrised Q_i A_i, in client order, one batch at a time."""
    for a_stack in _batches(pop.matrices):
        yield from mat.symmetrize(distortion_matrix(a_stack, alpha, gamma, theta) @ a_stack)


def _surrogate_client_gradients(
    pop: Population, x: np.ndarray, alpha: float, gamma: float, theta: WeightScheme
) -> Iterator[np.ndarray]:
    """Every client's surrogate gradient Q_i A_i (x - c_i), in client order."""
    for center, qa in zip(pop.centers, _surrogate_hessians(pop, alpha, gamma, theta)):
        yield qa @ (x - center)


def _weighted_system(pop: Population, hessians) -> tuple[np.ndarray, np.ndarray]:
    """(sum_i w_i H_i symmetrised, sum_i w_i H_i c_i) in client order; H_i = A_i is theta = (1)."""
    h = np.zeros((pop.dim, pop.dim))
    rhs = np.zeros(pop.dim)
    for weight, center, h_i in zip(pop.weights, pop.centers, hessians):
        h += weight * h_i
        rhs += weight * (h_i @ center)
    return mat.symmetrize(h), rhs


def surrogate_hessian(
    pop: Population, alpha: float, gamma: float, theta: WeightScheme
) -> np.ndarray:
    """Hessian of the surrogate loss: E_i[Q_i A_i]."""
    return _weighted_system(pop, _surrogate_hessians(pop, alpha, gamma, theta))[0]


def surrogate_gradient(
    pop: Population, x: np.ndarray, alpha: float, gamma: float, theta: WeightScheme
) -> np.ndarray:
    """Gradient of the surrogate loss: E_i[Q_i A_i (x - c_i)]."""
    x = mat.check_vector(x, pop.dim, "x")
    g = np.zeros(pop.dim)
    for weight, row in zip(pop.weights, _surrogate_client_gradients(pop, x, alpha, gamma, theta)):
        g += weight * row
    return g


def surrogate_minimizer(
    pop: Population, alpha: float, gamma: float, theta: WeightScheme
) -> np.ndarray:
    """Unique minimizer of the surrogate loss, E[Q_i A_i]^-1 E[Q_i A_i c_i].

    Requires gamma < (ell + alpha)^-1, which makes the surrogate strongly
    convex.
    """
    require_contractive(pop.bounds, alpha, gamma)
    try:
        return np.linalg.solve(*_weighted_system(pop, _surrogate_hessians(pop, alpha, gamma, theta)))
    except np.linalg.LinAlgError as exc:  # every mapped eigenvalue can underflow, e.g. last-only at large K
        raise ConditioningError("surrogate Hessian is singular") from exc


def empirical_minimizer(pop: Population) -> np.ndarray:
    """Minimizer of the empirical loss, E[A_i]^-1 E[A_i c_i]."""
    h, rhs = _weighted_system(pop, pop.matrices)
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
    return mat.euclidean_norm(x_surrogate - x_empirical)


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


def _population_lines(pop: Population):
    """The lines of the population file, without their newlines, one at a time."""
    yield _HEADER
    yield f"dim {pop.dim}"
    b = pop.bounds
    yield f"bounds mu {_fmt(b.mu)} ell {_fmt(b.ell)} c_radius {_fmt(b.c_radius)}"
    yield f"clients {pop.n_clients}"
    lower = np.tril_indices(pop.dim)  # row-major lower triangle
    for weight, a, center in zip(pop.weights, pop.matrices, pop.centers):
        yield f"client weight {_fmt(weight)}"
        yield "a " + " ".join(_fmt(v) for v in a[lower])
        yield "c " + " ".join(_fmt(v) for v in center)


def save_population(pop: Population, path) -> None:
    """Write the population file line by line, never holding the whole text."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(line + "\n" for line in _population_lines(pop))


class _LineReader:
    """Numbered content lines of an iterable of lines, consumed lazily."""

    def __init__(self, lines):
        self.lines = iter(lines)
        self.cursor = 0

    def next_content(self) -> tuple[int, list[str]]:
        for raw in self.lines:
            self.cursor += 1
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                return self.cursor, stripped.split()
        raise PopulationFormatError(self.cursor, "unexpected end of file")


def _parse_floats(line_number: int, tokens: list[str], expected: int, what: str) -> np.ndarray:
    if len(tokens) != expected:
        raise PopulationFormatError(
            line_number, f"expected {expected} values for {what}, got {len(tokens)}"
        )
    try:
        return np.array([float(tok) for tok in tokens])
    except ValueError as exc:
        raise PopulationFormatError(line_number, f"bad number in {what}: {exc}") from exc


def load_population(path) -> Population:
    """Read a population file line by line; errors name the offending line."""
    with open(path, "r", encoding="utf-8") as handle:
        # splitlines() on each line keeps str.splitlines()'s line boundaries
        # (form feeds and other separators a text file does not split on).
        reader = _LineReader(part for raw in handle for part in raw.splitlines())
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

        # The clients are parsed straight into the stacks the population keeps,
        # so loading holds no per-client copy of the matrices.
        try:
            matrices, centers, weights = np.empty((n_clients, dim, dim)), np.empty((n_clients, dim)), np.empty(n_clients)
        except (MemoryError, ValueError) as exc:
            raise PopulationFormatError(line_number, f"{n_clients} clients of dimension {dim} do not fit in memory") from exc
        n_tril = dim * (dim + 1) // 2
        lower = np.tril_indices(dim)  # row-major lower triangle, as _population_lines writes it
        for i, (a, center) in enumerate(zip(matrices, centers)):
            line_number, tokens = reader.next_content()
            if len(tokens) != 3 or tokens[0] != "client" or tokens[1] != "weight":
                raise PopulationFormatError(line_number, "expected 'client weight <w>'")
            weights[i] = _parse_floats(line_number, [tokens[2]], 1, "weight")[0]

            line_number, tokens = reader.next_content()
            if tokens[0] != "a":
                raise PopulationFormatError(line_number, "expected 'a <lower triangle>'")
            tril = _parse_floats(line_number, tokens[1:], n_tril, "matrix lower triangle")
            a[lower] = tril
            a[lower[::-1]] = tril

            line_number, tokens = reader.next_content()
            if tokens[0] != "c":
                raise PopulationFormatError(line_number, "expected 'c <center>'")
            center[:] = _parse_floats(line_number, tokens[1:], dim, "center")
            # the client's checks, at the line that completes it; the stacks are symmetric by construction
            for values, name in ((tril, "a_matrix"), (center, "center")):
                if not np.isfinite(values).all():
                    raise PopulationFormatError(line_number, f"{name} contains non-finite entries")

    try:
        return Population(None, weights, bounds, _stacks=(matrices, centers))
    except (InvalidInputError, DimensionMismatchError) as exc:
        raise PopulationFormatError(line_number, str(exc)) from exc
