"""Dense symmetric-matrix arithmetic and spectrum-constrained random matrices.

Numerical substrate for the rest of the library: every Hessian, distortion
matrix, and random problem instance passes through here. Matrices are plain
float64 numpy arrays; constructors symmetrize and validate, operations are
pure functions, and all randomness flows through counter-based keyed streams
(seed in, values out; no global state).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InfeasibleSpectrumError, InvalidInputError

# Eigenvalues of an "invertible SPD" matrix must clear this floor.
SPD_LAMBDA_MIN = 1e-12

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(value: int) -> int:
    """One step of the splitmix64 mixer (deterministic, stdlib arithmetic)."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (value ^ (value >> 31)) & _MASK64


def child_seed(seed: int, *tags: int) -> int:
    """Derive a deterministic 64-bit child seed from (seed, tags)."""
    mixed = int(seed) & _MASK64
    for tag in tags:
        mixed = _splitmix64(mixed ^ _splitmix64(int(tag) & _MASK64))
    return mixed


class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands Philox one precomputed key.

    Philox(key=...) first builds a SeedSequence from fresh OS entropy and
    then overwrites the state it seeded; Philox(_PhiloxKey(key)) asks this
    object for its key instead, so it gathers no entropy and starts in the
    same state (counter 0, that key).
    """

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a Philox key is 2 uint64 words, not {n_words} of {np.dtype(dtype)}")
        return self.key


def keyed_rng(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic substream for (seed, tags) on a counter-based generator.

    Child streams for e.g. (seed, round) or (seed, grid_index) are derived by
    mixing the tags into the second Philox key word, so results do not depend
    on evaluation order or scheduling. The stream is the one of
    Generator(Philox(key=key)), bit for bit.
    """
    mixed = _splitmix64(len(tags))
    for tag in tags:
        mixed = _splitmix64(mixed ^ (int(tag) & _MASK64))
    key = np.array([int(seed) & _MASK64, mixed], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(key)))


def symmetrize(a: np.ndarray) -> np.ndarray:
    """0.5 * (A + A^T) of a (d, d) matrix, or of each of a (..., d, d) stack as if passed alone."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    return 0.5 * (a + a.swapaxes(-1, -2))


def real_array(value, name: str, copy: bool = False) -> np.ndarray:
    """value as a float64 array, rejecting complex and non-numeric input before the cast.

    A cast from complex to float drops the imaginary part with only a
    ComplexWarning, and one from strings turns "3" into 3.0, so every
    validated input goes through here instead; a ragged nested sequence, a
    string or an object that is no number raises InvalidInputError.
    copy=True returns an array the caller owns, never one sharing memory
    with value.
    """
    try:
        array = np.asarray(value)
        kind = array.dtype.kind
        if kind in "biufO":  # an object array casts when its entries are numbers
            return array.astype(float, copy=copy)
    except (TypeError, ValueError):  # a ragged nested sequence, or an entry that is no number
        kind = None
    if kind == "c":
        raise InvalidInputError(f"{name} has complex entries")
    raise InvalidInputError(f"{name} must be an array of real numbers")


def check_vector(x, dim: int, name: str) -> np.ndarray:
    """x as a float64 vector of length dim (see real_array), or DimensionMismatchError."""
    x = real_array(x, name)
    if x.shape != (dim,):
        raise DimensionMismatchError(f"{name} has shape {x.shape}, expected ({dim},)")
    return x


def euclidean_norm(x: np.ndarray) -> float:
    """||x|| of a real vector; an overflow reads inf silently.

    np.vdot runs np.linalg.norm's BLAS dot without its floating-point error check, with the
    same bits for a contiguous x.
    """
    return math.sqrt(np.vdot(x, x))


def check_integer(value, name: str) -> int:
    """value as a Python int; a float (even 3.0 or nan), a string or None raises InvalidInputError."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None


def check_count(value, name: str) -> int:
    """value as a Python int >= 1 (see check_integer), or InvalidInputError."""
    count = check_integer(value, name)
    if count < 1:
        raise InvalidInputError(f"{name} must be >= 1, got {count}")
    return count


def check_rates(alpha: float, gamma: float) -> None:
    """Raise InvalidInputError unless 0 <= alpha < inf and 0 <= gamma < inf; a NaN fails the comparison."""
    if not (alpha >= 0.0 and gamma >= 0.0):
        raise InvalidInputError(f"alpha and gamma must be nonnegative, got alpha={alpha}, gamma={gamma}")
    if not (alpha < np.inf and gamma < np.inf):
        raise InvalidInputError("alpha and gamma must be finite")


def check_c_radius(c_radius: float) -> None:
    """Raise InvalidInputError unless c_radius >= 0; a NaN fails the comparison."""
    if not c_radius >= 0.0:
        raise InvalidInputError(f"c_radius must be nonnegative, got {c_radius}")


def check_step(step: float, name: str) -> None:
    """Raise InvalidInputError unless 0 < step < inf; a NaN fails the comparison."""
    if not 0.0 < step < np.inf:
        raise InvalidInputError(f"{name} must be positive and finite, got {step}")


def check_momentum(momentum: float, name: str) -> None:
    """Raise InvalidInputError unless 0 <= momentum < 1; a NaN fails the comparison."""
    if not 0.0 <= momentum < 1.0:
        raise InvalidInputError(f"{name} must lie in [0, 1), got {momentum}")


def check_sums_to_one(p: np.ndarray, name: str) -> None:
    """Raise InvalidInputError unless the entries of p sum to 1 within 1e-12."""
    total = p.sum()
    if abs(float(total) - 1.0) > 1e-12:
        raise InvalidInputError(f"{name} sum to {total!r}, expected 1")


def check_symmetric(a: np.ndarray, name: str = "matrix", copy: bool = False) -> np.ndarray:
    """Validate a finite square real symmetric matrix (see check_symmetric_stack) and return it as float64."""
    a = real_array(a, name, copy)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatchError(f"{name} must be square, got shape {a.shape}")
    checked = check_symmetric_stack(a[None], lambda i: name)
    return a if np.may_share_memory(checked, a) else checked[0].copy()  # a, or its symmetrised copy


def check_symmetric_stack(a: np.ndarray, label: Callable[..., str]) -> np.ndarray:
    """A stack (n, d, d) of finite real symmetric matrices, as float64 (see real_array).

    A matrix asymmetric within 1e-12 * (1 + max|a|), as upstream arithmetic
    leaves one, comes back as 0.5 * (A + A^T) in a new array, never written
    into the caller's. The error names the first bad matrix i as label(i=i),
    e.g. with "X[{i}]".format, non-finite before asymmetric.
    """
    a = real_array(a, label(i=0))
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise DimensionMismatchError(f"{label(i=0)} must be square, got shape {a.shape[1:]}")
    if np.isfinite(a).all() and (a == a.swapaxes(1, 2)).all():
        return a
    finite = np.isfinite(a).all(axis=(1, 2))
    asymmetric = finite & (a != a.swapaxes(1, 2)).any(axis=(1, 2))
    m = a[asymmetric]
    bad = ~finite
    bad[asymmetric] = np.abs(m - m.swapaxes(1, 2)).max(axis=(1, 2)) > 1e-12 * (1.0 + np.abs(m).max(axis=(1, 2)))
    if bad.any():
        i = int(bad.argmax())
        problem = "is not symmetric" if finite[i] else "contains non-finite entries"
        raise InvalidInputError(f"{label(i=i)} {problem}")
    a = a.copy()
    a[asymmetric] = symmetrize(m)
    return a


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorisation A = V diag(w) V^T with eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # orthonormal columns, eigenvectors[:, i] <-> eigenvalues[i]

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def eigh(a: np.ndarray) -> EigenDecomposition:
    """Symmetric eigendecomposition with ascending eigenvalues."""
    a = check_symmetric(a)
    w, v = np.linalg.eigh(a)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def spectral_radius(m: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix; NaN if m has a non-finite entry."""
    if not np.isfinite(m).all():
        return math.nan
    return float(np.abs(np.linalg.eigvals(m)).max())


@dataclass(frozen=True)
class SpectrumBounds:
    """Population-level bounds: mu I <= A_i <= ell I and ||c_i|| <= c_radius."""

    mu: float
    ell: float
    c_radius: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.mu <= self.ell):
            raise InvalidInputError(f"need 0 < mu <= ell, got mu={self.mu}, ell={self.ell}")
        if not math.isfinite(self.ell):
            raise InvalidInputError(f"mu and ell must be finite, got mu={self.mu}, ell={self.ell}")
        check_c_radius(self.c_radius)

    @property
    def kappa0(self) -> float:
        """Baseline condition number ell / mu."""
        return self.ell / self.mu


def random_spd_with_spectrum(dim: int, bounds: SpectrumBounds, seed: int) -> np.ndarray:
    """Random symmetric matrix with lambda_min = mu and lambda_max = ell.

    Draws G = B^T B with standard normal B and rescales, A = beta1 * G +
    beta2 * I, choosing beta1, beta2 so the extreme eigenvalues land exactly
    on (mu, ell). Deterministic for a fixed (dim, bounds, seed). A degenerate
    draw (numerically flat spectrum of G) falls back to A = mu * I, as does
    mu == ell.
    """
    check_count(dim, "dim")
    mu, ell = bounds.mu, bounds.ell
    if mu == ell:
        return mu * np.eye(dim)
    if dim == 1:
        raise InfeasibleSpectrumError(
            f"a 1x1 matrix has a single eigenvalue; cannot realise mu={mu} != ell={ell}"
        )
    rng = keyed_rng(seed, 0x5D)
    b = rng.standard_normal((dim, dim))
    gram = symmetrize(b.T @ b)
    dec = eigh(gram)
    spread = dec.lambda_max - dec.lambda_min
    if spread < 1e-12:
        return mu * np.eye(dim)
    beta1 = (ell - mu) / spread
    beta2 = mu - beta1 * dec.lambda_min
    return symmetrize(beta1 * gram + beta2 * np.eye(dim))
