"""Round-based simulation of local update methods on quadratic populations.

One round: the server broadcasts x_t, each participating client runs K local
(proximal) gradient steps and returns the theta-weighted sum of the gradients
it computed, and the server feeds the averaged pseudo-gradient q_t to its own
first-order optimizer (plain gradient descent, heavy-ball, or Nesterov). In
expectation a round is one ServerOpt step on the surrogate loss, which the
deterministic full-participation mode realises exactly.

The server learning rate eta is fully decoupled from the client rate gamma;
the engine never multiplies the two. Client sampling and mini-batch draws use
per-(seed, round, draw) child streams so trajectories are reproducible and
independent of scheduling. Deterministic rounds step all clients together in
one batched kernel; stochastic rounds run the same K-step loop one sampled
client at a time, with mini-batch gradients.

The kernels read the stacks the data lives in and copy nothing per round: a
deterministic round steps the population's read-only (n, d, d) matrix and
(n, d) center stacks, and a mini-batch draw gathers its examples from the
client's (m, d, d) and (m, d) example stacks, one indexing operation for
all K local steps. The proximal term alpha (x_k - x) is computed only
when alpha > 0; adding its zero would change nothing but the sign of an
exactly-zero gradient component.

The CSV export and `lul simulate --format json` write one table of
distances to the two minimizers, optimum_distances.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import quadratics as qw
from .bounds import OPTIMIZER_KINDS
from .errors import DivergenceError, InvalidInputError
from .matrices import check_count, check_momentum, check_rates, check_step, check_vector, eigh, euclidean_norm
from .matrices import keyed_rng
from .quadratics import ClientModel, Population, WeightScheme

DIVERGENCE_THRESHOLD = 1e12

# Stream-domain tags for child RNGs.
_DOMAIN_SAMPLING = 0x01
_DOMAIN_CLIENT = 0x02


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation needs besides the population and x0.

    mode is "deterministic" (every client participates each round and local
    steps use full gradients; clients_per_round, if given, must equal the
    population size) or "stochastic" (each round draws clients_per_round
    clients with replacement, in proportion to the population weights, and
    local steps use mini-batches of batch_size drawn without replacement from
    the client's example set). clients_per_round may not exceed the number of
    clients with nonzero weight.

    alpha and gamma must be finite and nonnegative, and the three counts integers.
    """

    alpha: float
    gamma: float
    theta: WeightScheme
    rounds: int
    seed: int = 0
    mode: str = "deterministic"
    clients_per_round: int | None = None
    batch_size: int | None = None

    def __post_init__(self):
        check_rates(self.alpha, self.gamma)
        check_count(self.rounds, "rounds")
        if self.mode not in ("deterministic", "stochastic"):
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        if self.mode == "stochastic":
            for name in ("clients_per_round", "batch_size"):
                value = getattr(self, name)
                if value is None:
                    raise InvalidInputError(f"stochastic mode needs {name} >= 1")
                check_count(value, name)


@dataclass(frozen=True)
class ServerOptSpec:
    """Server optimizer: kind, step size eta, momentum beta.

    plain ignores momentum (normalised to 0).
    """

    kind: str
    step: float
    momentum: float = 0.0

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise InvalidInputError(
                f"unknown server optimizer {self.kind!r}, expected one of {OPTIMIZER_KINDS}"
            )
        check_step(self.step, "step")
        if self.kind == "plain" and self.momentum != 0.0:
            object.__setattr__(self, "momentum", 0.0)
        check_momentum(self.momentum, "momentum")


@dataclass(frozen=True)
class OptState:
    """Per-run server state: the round counter and the momentum anchor."""

    round_index: int = 0
    anchor: np.ndarray | None = None  # previous iterate (heavy-ball) / previous main iterate (Nesterov)


@dataclass(frozen=True)
class Trajectory:
    """Iterates x_0..x_T and the pseudo-gradients q_0..q_{T-1} that drove them."""

    iterates: np.ndarray  # (T+1, d)
    pseudo_gradients: np.ndarray  # (T, d)

    def __post_init__(self):
        x = np.asarray(self.iterates, dtype=float)
        q = np.asarray(self.pseudo_gradients, dtype=float)
        if x.ndim != 2 or q.ndim != 2 or x.shape[0] != q.shape[0] + 1 or x.shape[1] != q.shape[1]:
            raise InvalidInputError(
                f"inconsistent trajectory shapes {x.shape} and {q.shape}"
            )
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(q))):
            raise InvalidInputError("trajectory contains non-finite values")
        object.__setattr__(self, "iterates", x)
        object.__setattr__(self, "pseudo_gradients", q)

    @property
    def rounds(self) -> int:
        return self.pseudo_gradients.shape[0]


def _local_steps(
    x: np.ndarray,
    n: int,
    alpha: float,
    gamma: float,
    theta: WeightScheme,
    loss_gradient: Callable[[int, np.ndarray], np.ndarray],
) -> np.ndarray:
    """The K-step kernel: n stacked clients run K local steps from x together.

    loss_gradient(k, xk) returns the (n, d) local loss gradients at step k
    (full or mini-batch), called for k = 0, 1, ... in order; the proximal
    term alpha (xk - x) is added here when alpha > 0. Returns the (n, d)
    stacked messages sum_k theta_k g_k. Every operation is elementwise across
    clients or a per-client matrix product, so each row is the same
    floating-point computation as one client stepping alone.
    """
    coeffs = theta.coefficients[: theta.size]
    xk = np.tile(x, (n, 1))
    total = np.zeros_like(xk)
    for k, coeff in enumerate(coeffs):
        g = loss_gradient(k, xk)
        if alpha > 0.0:
            g += alpha * (xk - x)
        if coeff != 0.0:
            total += coeff * g
        xk = xk - gamma * g
    return total


def _deterministic_updates(
    a_stack: np.ndarray,
    c_stack: np.ndarray,
    x: np.ndarray,
    alpha: float,
    gamma: float,
    theta: WeightScheme,
) -> np.ndarray:
    """Full-gradient messages of the clients stacked as (n, d, d) matrices and (n, d) centers.

    matmul runs one matrix-vector product per client, which keeps every row
    bit-identical to that client's update computed on its own.
    """
    return _local_steps(
        x, a_stack.shape[0], alpha, gamma, theta,
        lambda k, xk: np.matmul(a_stack, (xk - c_stack)[..., None])[..., 0],
    )


def _stochastic_client_updates(
    client: ClientModel,
    x: np.ndarray,
    alpha: float,
    gamma: float,
    theta: WeightScheme,
    batch_indices: np.ndarray,
) -> np.ndarray:
    """Mini-batch local updates for a whole batch of independent simulations.

    batch_indices has shape (n_sims, K, B): example indices per simulation and
    local step. Returns the (n_sims, d) stacked client messages. The single
    draw path and the exact expectation of the verification suites share this
    code, so they are the same algorithm by construction.

    The batches of all K steps are gathered in one indexing operation,
    step-major, so each step reads a contiguous (n_sims, B, d, d) slice laid
    out as a gather of that step alone: the result is bit-identical to one
    gather per step.
    """
    n_sims, k_steps, batch = batch_indices.shape
    if k_steps != theta.size:
        raise InvalidInputError("batch_indices second axis must equal K(theta)")
    steps = batch_indices.swapaxes(0, 1)  # (K, n_sims, B)
    b_steps, c_steps = client.example_matrices[steps], client.example_centers[steps]

    def loss_gradient(k, xk):
        diff = xk[:, None, :] - c_steps[k]  # (n_sims, B, d)
        return np.einsum("sbij,sbj->si", b_steps[k], diff) / batch

    return _local_steps(x, n_sims, alpha, gamma, theta, loss_gradient)


def _draw_batch_indices(
    rng: np.random.Generator, n_examples: int, n_sims: int, k_steps: int, batch: int
) -> np.ndarray:
    """Uniform batches without replacement within each batch."""
    keys = rng.random((n_sims, k_steps, n_examples))
    return np.argsort(keys, axis=-1)[..., :batch]


def client_update(
    client: ClientModel,
    x: np.ndarray,
    cfg: RunConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One client's message: sum_k theta_k g_k after K local steps from x.

    Deterministic mode returns exactly Q_i A_i (x - c_i) up to rounding;
    stochastic mode (requires an example set, B <= example count, and an rng)
    is an unbiased estimate of it.
    """
    x = check_vector(x, client.dim, "x")
    if cfg.mode == "deterministic":
        return _deterministic_updates(
            client.a_matrix[None], client.center[None], x, cfg.alpha, cfg.gamma, cfg.theta
        )[0]
    if client.examples is None:
        raise InvalidInputError("stochastic client update needs a client with examples")
    n_examples = len(client.examples)
    if cfg.batch_size > n_examples:
        raise InvalidInputError(
            f"batch_size {cfg.batch_size} exceeds example count {n_examples}"
        )
    if rng is None:
        raise InvalidInputError("stochastic client update needs an rng")
    idx = _draw_batch_indices(rng, n_examples, 1, cfg.theta.size, cfg.batch_size)
    return _stochastic_client_updates(client, x, cfg.alpha, cfg.gamma, cfg.theta, idx)[0]


def client_update_maml(
    client: ClientModel,
    x: np.ndarray,
    k: int,
    gamma: float,
    alpha: float = 0.0,
) -> np.ndarray:
    """Meta-gradient of the K-step-adapted local loss (deterministic clients).

    Runs K (proximal) gradient steps from x, takes the local gradient at the
    adapted point, and back-propagates through the K steps, treating the
    proximal anchor as frozen. On quadratics this equals the client update
    under the theta_{2K+1} scheme: (I - gamma (A + alpha I))^{2K} A (x - c).
    """
    check_count(k, "k")
    check_rates(alpha, gamma)
    x = check_vector(x, client.dim, "x")
    a = client.a_matrix
    c = client.center
    xk = x.copy()
    for _ in range(k):
        g = a @ (xk - c) + alpha * (xk - x)
        xk = xk - gamma * g
    v = a @ (xk - c) + alpha * (xk - x)
    step_jacobian = (1.0 - gamma * alpha) * np.eye(x.shape[0]) - gamma * a
    for _ in range(k):
        v = step_jacobian @ v
    return v


def auto_tune(opt_kind: str, l_tilde: float, mu_tilde: float) -> ServerOptSpec:
    """Classical optimal tuning for an (l_tilde, mu_tilde) quadratic.

    plain:      eta = 2 / (L + mu)
    heavy-ball: eta = 4 / (sqrt(L) + sqrt(mu))^2, beta = ((sqrt(k)-1)/(sqrt(k)+1))^2
    Nesterov:   eta = 4 / (3L + mu),             beta = (sqrt(3k+1)-2)/(sqrt(3k+1)+2)

    with k = L / mu.
    """
    if not (0.0 < mu_tilde <= l_tilde):
        raise InvalidInputError(
            f"need 0 < mu_tilde <= l_tilde, got mu_tilde={mu_tilde}, l_tilde={l_tilde}"
        )
    kappa = l_tilde / mu_tilde
    if opt_kind == "plain":
        return ServerOptSpec(kind="plain", step=2.0 / (l_tilde + mu_tilde))
    if opt_kind == "heavy_ball":
        eta = 4.0 / (np.sqrt(l_tilde) + np.sqrt(mu_tilde)) ** 2
        beta = ((np.sqrt(kappa) - 1.0) / (np.sqrt(kappa) + 1.0)) ** 2
        return ServerOptSpec(kind="heavy_ball", step=float(eta), momentum=float(beta))
    if opt_kind == "nesterov":
        eta = 4.0 / (3.0 * l_tilde + mu_tilde)
        root = np.sqrt(3.0 * kappa + 1.0)
        beta = (root - 2.0) / (root + 2.0)
        return ServerOptSpec(kind="nesterov", step=float(eta), momentum=float(beta))
    raise InvalidInputError(f"unknown server optimizer {opt_kind!r}")


def auto_tune_for(
    pop: Population, alpha: float, gamma: float, theta: WeightScheme, opt_kind: str
) -> ServerOptSpec:
    """Auto-tune against the measured spectrum of the surrogate Hessian."""
    dec = eigh(qw.surrogate_hessian(pop, alpha, gamma, theta))
    return auto_tune(opt_kind, dec.lambda_max, dec.lambda_min)


def _apply_server_opt(
    opt: ServerOptSpec, x: np.ndarray, q: np.ndarray, state: OptState
) -> tuple[np.ndarray, OptState]:
    if opt.kind == "plain":
        return x - opt.step * q, replace(state, round_index=state.round_index + 1)
    anchor = state.anchor if state.anchor is not None else x
    if opt.kind == "heavy_ball":
        x_next = x - opt.step * q + opt.momentum * (x - anchor)
        return x_next, OptState(round_index=state.round_index + 1, anchor=x)
    # Nesterov: x is the lookahead point at which q was evaluated.
    xi = x - opt.step * q
    x_next = xi + opt.momentum * (xi - anchor)
    return x_next, OptState(round_index=state.round_index + 1, anchor=xi)


def server_round(
    pop: Population,
    x: np.ndarray,
    cfg: RunConfig,
    opt: ServerOptSpec,
    state: OptState | None = None,
) -> tuple[np.ndarray, OptState, np.ndarray]:
    """One communication round; returns (x_next, state, pseudo_gradient).

    In deterministic mode every client runs its K local steps in one batched
    kernel and q_t is the population-weighted sum of their updates, i.e. the
    exact surrogate gradient at x; the sum runs in client-index order, so q_t
    is bit-identical to updating the clients one at a time. In stochastic mode
    clients_per_round clients are drawn with replacement, each with
    probability equal to its weight, and q_t is the plain average of their
    updates (Li et al. 2020, scheme I), an unbiased estimate of the surrogate
    gradient. Draw j of round t uses its own stream, so the result depends
    only on (seed, t), not on scheduling.
    """
    if state is None:
        state = OptState()
    x = check_vector(x, pop.dim, "x")
    t = state.round_index
    if cfg.mode == "deterministic":
        if cfg.clients_per_round is not None and cfg.clients_per_round != pop.n_clients:
            raise InvalidInputError(
                "deterministic mode requires full participation "
                f"(clients_per_round={cfg.clients_per_round}, population={pop.n_clients})"
            )
        updates = _deterministic_updates(pop.matrices, pop.centers, x, cfg.alpha, cfg.gamma, cfg.theta)
        q = np.zeros_like(x)
        for weight, update in zip(pop.weights, updates):
            q += weight * update
    else:
        eligible = int(np.count_nonzero(pop.weights))
        if cfg.clients_per_round > eligible:
            raise InvalidInputError(
                f"clients_per_round {cfg.clients_per_round} exceeds the {eligible} clients "
                "with nonzero weight"
            )
        sample_rng = keyed_rng(cfg.seed, _DOMAIN_SAMPLING, t)
        chosen = sample_rng.choice(pop.n_clients, size=cfg.clients_per_round, p=pop.weights)
        q = np.zeros_like(x)
        for draw, index in enumerate(chosen):
            client_rng = keyed_rng(cfg.seed, _DOMAIN_CLIENT, t, draw)
            q += client_update(pop.clients[index], x, cfg, client_rng)
        q /= cfg.clients_per_round
    x_next, state = _apply_server_opt(opt, x, q, state)
    return x_next, state, q


def run(
    pop: Population, x0: np.ndarray, cfg: RunConfig, opt: ServerOptSpec
) -> Trajectory:
    """Run cfg.rounds communication rounds from x0; deterministic given seed."""
    x = check_vector(x0, pop.dim, "x0")
    iterates = [x]
    gradients = []
    state = OptState()
    for t in range(cfg.rounds):
        x, state, q = server_round(pop, x, cfg, opt, state)
        norm = euclidean_norm(x)
        if not np.isfinite(norm) or norm > DIVERGENCE_THRESHOLD:
            raise DivergenceError(round_index=t, norm=norm)
        iterates.append(x)
        gradients.append(q)
    return Trajectory(iterates=np.array(iterates), pseudo_gradients=np.array(gradients))


def round_operator(pop: Population, cfg: RunConfig, opt: ServerOptSpec) -> np.ndarray:
    """The matrix M of one deterministic round on the server state.

    The state s is x for plain and the stacked (x, anchor) for momentum. A
    deterministic round is affine in it, s' = M s + F(0), so M is built column
    by column from server_round itself: column j is F(e_j) - F(0), d + 1
    rounds for plain and 2d + 1 for momentum. The spectral radius of M is the
    rate at which the literal engine contracts; a tuned momentum M is not
    normal, so its per-round norm ratios can exceed that rate.
    """
    if cfg.mode != "deterministic":
        raise InvalidInputError(f"round_operator needs a deterministic round, got mode {cfg.mode!r}")
    d = pop.dim

    def next_state(s: np.ndarray) -> np.ndarray:
        if opt.kind == "plain":
            return server_round(pop, s, cfg, opt)[0]
        x_next, state, _ = server_round(pop, s[:d], cfg, opt, OptState(anchor=s[d:]))
        return np.concatenate([x_next, state.anchor])

    basis = np.eye(d if opt.kind == "plain" else 2 * d)
    offset = next_state(np.zeros(basis.shape[0]))
    return np.stack([next_state(e) - offset for e in basis], axis=1)


def optimum_distances(
    traj: Trajectory, pop: Population, alpha: float, gamma: float, theta: WeightScheme
) -> tuple[list[float], list[float]]:
    """Every iterate's distance to the surrogate and to the empirical minimizer, each solved once."""
    x_surrogate = qw.surrogate_minimizer(pop, alpha, gamma, theta)
    x_empirical = qw.empirical_minimizer(pop)
    to_surrogate = [euclidean_norm(x - x_surrogate) for x in traj.iterates]
    to_empirical = [euclidean_norm(x - x_empirical) for x in traj.iterates]
    return to_surrogate, to_empirical


def export_trajectory_csv(
    traj: Trajectory,
    pop: Population,
    alpha: float,
    gamma: float,
    theta: WeightScheme,
) -> str:
    """Trajectory CSV: round, iterate components, distances to both optima."""
    d = pop.dim
    header = (
        "round,"
        + ",".join(f"comp_{j}" for j in range(d))
        + ",dist_to_surrogate_opt,dist_to_empirical_opt"
    )
    lines = [header]
    rows = zip(traj.iterates, *optimum_distances(traj, pop, alpha, gamma, theta))
    for t, (x, d_surr, d_emp) in enumerate(rows):
        comps = ",".join(format(v, ".17g") for v in x)
        lines.append(f"{t},{comps},{format(d_surr, '.17g')},{format(d_emp, '.17g')}")
    return "\n".join(lines) + "\n"
