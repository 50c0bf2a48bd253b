"""Every rejection path of the validated constructors, with its exact type and message.

The constructors on the verification suites' path (DiscreteDistribution,
WeightScheme, QuadraticExample, ClientModel, Population and the
matrix-weighted family check) run their checks on as few numpy calls as they
can; these cases pin the checks' order and wording, so a faster check still
names the same first problem in the same words. The last cases pin the
library errors that bad points, counts, rates, grids and radii get in
place of a raw numpy exception or a second wording.
"""

import numpy as np
import pytest

from local_update_lab.bounds import (
    DiscreteDistribution,
    _validate_weighted_family,
    distance_bound_from_kappa,
    matrix_weighted_discrepancy,
)
from local_update_lab.engine import RunConfig, auto_tune, client_update, client_update_maml, server_round
from local_update_lab.errors import DimensionMismatchError, InvalidInputError
from local_update_lab.frontier import SweepSpec, default_gamma_grid, default_k_grid, simulated_maml_sweep
from local_update_lab.matrices import (
    SpectrumBounds,
    check_symmetric,
    check_symmetric_stack,
    keyed_rng,
    random_spd_with_spectrum,
)
from local_update_lab.quadratics import (
    ClientModel,
    Population,
    QuadraticExample,
    WeightScheme,
    distortion_matrix,
    surrogate_gradient,
)
from local_update_lab.verify import checks_report, random_population, run_suites
from closed_forms import phi, psi

NAN, INF = float("nan"), float("inf")
ASYMMETRIC = np.array([[1.0, 2.0], [0.0, 1.0]])


def assert_rejects(build, error, message):
    with pytest.raises(InvalidInputError) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "values, probs, error, message",
    [
        ([], [], InvalidInputError, "values and probs must be matching nonempty 1-d arrays"),
        ([1.0, 2.0], [1.0], InvalidInputError, "values and probs must be matching nonempty 1-d arrays"),
        ([[1.0]], [[1.0]], InvalidInputError, "values and probs must be matching nonempty 1-d arrays"),
        ([NAN, 1.0], [0.5, -0.5], InvalidInputError, "values and probs must be finite"),
        ([1.0, 2.0], [INF, 0.5], InvalidInputError, "values and probs must be finite"),
        ([1.0, 2.0], [1.5, -0.5], InvalidInputError, "probabilities must be nonnegative"),
        ([1.0, 2.0], [0.25, 0.25], InvalidInputError, "probabilities sum to np.float64(0.5), expected 1"),
        ([1.0], [0.5], InvalidInputError, "probabilities sum to np.float64(0.5), expected 1"),
    ],
)
def test_discrete_distribution(values, probs, error, message):
    assert_rejects(lambda: DiscreteDistribution(values=values, probs=probs), error, message)


def test_discrete_distribution_accepts_scalars_as_one_point():
    dist = DiscreteDistribution(values=3.0, probs=1.0)
    assert dist.values.shape == dist.probs.shape == (1,)
    assert dist.mean == 3.0


@pytest.mark.parametrize(
    "coefficients, message",
    [
        ([], "coefficients must be a nonempty 1-d sequence"),
        ([[1.0, 2.0]], "coefficients must be a nonempty 1-d sequence"),
        ([1.0, NAN], "coefficients must be finite"),
        ([INF, -1.0], "coefficients must be finite"),
        ([1.0, -1.0], "coefficients must be nonnegative"),
        ([0.0, 0.0], "at least one coefficient must be positive"),
        ([-0.0], "at least one coefficient must be positive"),
    ],
)
def test_weight_scheme(coefficients, message):
    assert_rejects(lambda: WeightScheme(coefficients), InvalidInputError, message)


@pytest.mark.parametrize(
    "named, k, message",
    [
        (WeightScheme.first_k, 0, "k must be >= 1, got 0"),
        (WeightScheme.last_only, 0, "k must be >= 1, got 0"),
        (WeightScheme.maml_equivalent, -1, "k must be >= 1, got -1"),
        # the caller's k is checked, not 2k+1: no silent last_only(1), no "got -3"
        (WeightScheme.maml_equivalent, 0, "k must be >= 1, got 0"),
        (WeightScheme.maml_equivalent, -2, "k must be >= 1, got -2"),
        (WeightScheme.first_k, 2.5, "k must be an integer, got 2.5"),
        (WeightScheme.first_k, "3", "k must be an integer, got '3'"),
        (WeightScheme.last_only, NAN, "k must be an integer, got nan"),
        (WeightScheme.last_only, 3.0, "k must be an integer, got 3.0"),
        (WeightScheme.maml_equivalent, 2.5, "k must be an integer, got 2.5"),
    ],
)
def test_named_weight_schemes(named, k, message):
    assert_rejects(lambda: named(k), InvalidInputError, message)


@pytest.mark.parametrize(
    "coefficients, structure",
    [
        ([0.0, -0.0, 2.0, 0.0], ("last_only", 3, 2.0)),
        ([0.5, 0.5, 0.0], ("uniform_prefix", 2, 0.5)),
        ([0.5, 0.0, 0.5], ("general", 3, None)),
        (3.0, ("last_only", 1, 3.0)),
    ],
)
def test_weight_scheme_structure(coefficients, structure):
    kind, k, coeff = WeightScheme(coefficients).structure()
    assert (kind, k) == structure[:2]
    assert np.isnan(coeff) if structure[2] is None else coeff == structure[2]


@pytest.mark.parametrize("model, field", [(ClientModel, "a_matrix"), (QuadraticExample, "b_matrix")])
@pytest.mark.parametrize(
    "matrix, center, error, message",
    [
        (np.ones((2, 3)), np.zeros(2), DimensionMismatchError, "{field} must be square, got shape (2, 3)"),
        (np.ones(2), np.zeros(2), DimensionMismatchError, "{field} must be square, got shape (2,)"),
        (np.ones((0, 0)), np.zeros(0), DimensionMismatchError, "{field} must be square, got shape (0, 0)"),
        (np.array([[1.0, NAN], [NAN, 1.0]]), np.zeros(2), InvalidInputError,
         "{field} contains non-finite entries"),
        (np.diag([INF, 1.0]), np.zeros(2), InvalidInputError, "{field} contains non-finite entries"),
        (ASYMMETRIC, np.zeros(2), InvalidInputError, "{field} is not symmetric"),
        (np.eye(2), np.zeros(3), DimensionMismatchError, "center has shape (3,), expected (2,)"),
        (np.eye(2), np.zeros((2, 1)), DimensionMismatchError, "center has shape (2, 1), expected (2,)"),
        (np.eye(2), 0.0, DimensionMismatchError, "center has shape (), expected (2,)"),
        (np.eye(2), np.array([0.0, NAN]), InvalidInputError, "center contains non-finite entries"),
        # a stack is no single matrix, whether or not the center's length matches its first axis
        (np.stack([np.eye(2)] * 2), np.zeros(2), DimensionMismatchError, "{field} must be square, got shape (2, 2, 2)"),
        (np.stack([np.eye(2)] * 3), np.zeros(2), DimensionMismatchError, "{field} must be square, got shape (3, 2, 2)"),
        (np.ones((0, 2, 2)), np.zeros(0), DimensionMismatchError, "{field} must be square, got shape (0, 2, 2)"),
    ],
)
def test_client_and_example(model, field, matrix, center, error, message):
    kwargs = {field: matrix, "center": center}
    assert_rejects(lambda: model(**kwargs), error, message.format(field=field))


def test_rounding_asymmetry_is_symmetrised():
    a = np.array([[2.0, 1.0], [1.0 + 1e-15, 2.0]])
    client = ClientModel(a_matrix=a, center=np.zeros(2))
    np.testing.assert_array_equal(client.a_matrix, 0.5 * (a + a.T))
    np.testing.assert_array_equal(check_symmetric(a), 0.5 * (a + a.T))


def _population(stack):
    return Population.from_stacks(stack, np.zeros(stack.shape[:2]), np.full(len(stack), 1.0 / len(stack)))


def _weighted_family_xs(stack):
    ys = np.stack([np.eye(3)] * len(stack))
    matrix_weighted_discrepancy(stack, ys)
    return _validate_weighted_family(stack, ys)[0]


# route: (a matrix alone -> the matrix kept, a stack -> the stack kept, the error alone, the error for row i);
# load_population has no route of its own: a file holds a lower triangle, so a loaded matrix is exactly symmetric
SYMMETRY_ROUTES = {
    "check_symmetric": (lambda a: check_symmetric(a, "A"), lambda s: check_symmetric_stack(s, "A[{i}]".format),
                        "A is not symmetric", "A[{i}] is not symmetric"),
    "ClientModel/from_stacks": (lambda a: ClientModel(a_matrix=a, center=np.zeros(3)).a_matrix,
                                lambda s: _population(s).matrices,
                                "a_matrix is not symmetric", "client {i}: a_matrix is not symmetric"),
    "matrix_weighted_discrepancy": (lambda a: _weighted_family_xs([a])[0], _weighted_family_xs,
                                    "X[0] is not symmetric", "X[{i}] is not symmetric"),
}


@pytest.mark.parametrize("route", SYMMETRY_ROUTES)
@pytest.mark.parametrize("i", [0, 2])
@pytest.mark.parametrize("deviation, inside", [(4.5e-12, True), (5.5e-12, False)])
def test_a_matrix_alone_and_as_a_stack_row_get_one_verdict(route, i, deviation, inside):
    """The symmetry tolerance is 1e-12 * (1 + max|a|) = 5e-12 here, for a matrix alone or row i of a stack."""
    alone, stacked, alone_message, row_message = SYMMETRY_ROUTES[route]
    a = np.array([[4.0, 1.0, 0.0], [1.0 + deviation, 3.0, 0.5], [0.0, 0.5, 2.0]])
    stack = np.stack([np.diag([2.0, 3.0, 4.0])] * 3)
    stack[i] = a
    a_before, stack_before = a.copy(), stack.copy()
    if inside:
        expected = (0.5 * (a + a.T)).tobytes()
        assert alone(a).tobytes() == expected
        assert stacked(stack)[i].tobytes() == expected
    else:
        assert_rejects(lambda: alone(a), InvalidInputError, alone_message)
        assert_rejects(lambda: stacked(stack), InvalidInputError, row_message.format(i=i))
    assert a.tobytes() == a_before.tobytes() and stack.tobytes() == stack_before.tobytes()


def test_client_example_paths():
    examples = (
        QuadraticExample(b_matrix=2.0 * np.eye(2), center=np.array([1.0, 0.0])),
        QuadraticExample(b_matrix=np.eye(2) * 4.0, center=np.zeros(2)),
    )
    assert_rejects(lambda: ClientModel(a_matrix=np.eye(2), center=np.zeros(2), examples=()),
                   InvalidInputError, "examples, when given, must be nonempty")
    assert_rejects(lambda: ClientModel(a_matrix=np.eye(3), center=np.zeros(3), examples=examples),
                   DimensionMismatchError, "example dimension differs from client dimension")
    assert_rejects(lambda: ClientModel(a_matrix=np.eye(2), center=np.zeros(2), examples=examples),
                   InvalidInputError,
                   "a_matrix does not match the mean of the example matrices (max deviation 2.000e+00)")
    assert_rejects(lambda: ClientModel(a_matrix=3.0 * np.eye(2), center=np.zeros(2), examples=examples),
                   InvalidInputError, "center does not match A^-1 E[B_z c_z] (max deviation 3.333e-01)")
    assert_rejects(lambda: ClientModel.from_examples([]), InvalidInputError, "need at least one example")


def _client(lams, center=(0.0, 0.0)):
    return ClientModel(a_matrix=np.diag(lams), center=np.array(center))


BOUNDS = SpectrumBounds(mu=1.0, ell=10.0, c_radius=1.0)


@pytest.mark.parametrize(
    "clients, weights, bounds, error, message",
    [
        ((), np.zeros(0), BOUNDS, InvalidInputError, "population needs at least one client"),
        ((_client([1.0, 2.0]), ClientModel(a_matrix=np.eye(3), center=np.zeros(3))), [0.5, 0.5], BOUNDS,
         DimensionMismatchError, "all clients must share one dimension"),
        ((_client([1.0, 2.0]),), [0.5, 0.5], BOUNDS, DimensionMismatchError,
         "weights shape (2,) does not match 1 clients"),
        ((_client([1.0, 2.0]),), [[1.0]], BOUNDS, DimensionMismatchError,
         "weights shape (1, 1) does not match 1 clients"),
        ((_client([1.0, 2.0]),) * 2, [1.5, -0.5], BOUNDS, InvalidInputError,
         "weights must be finite and nonnegative"),
        ((_client([1.0, 2.0]),) * 2, [NAN, 1.0], BOUNDS, InvalidInputError,
         "weights must be finite and nonnegative"),
        ((_client([1.0, 2.0]),) * 2, [INF, 1.0], BOUNDS, InvalidInputError,
         "weights must be finite and nonnegative"),
        ((_client([1.0, 2.0]),) * 2, [0.5, 0.25], BOUNDS, InvalidInputError,
         "weights sum to np.float64(0.75), expected 1"),
        ((_client([1.0, 2.0]), _client([-1.0, 2.0])), [0.5, 0.5], None, InvalidInputError,
         "client matrices must be positive definite, got eigenvalue -1"),
        ((_client([1.0, 2.0]), _client([0.0, 2.0])), [0.5, 0.5], None, InvalidInputError,
         "client matrices must be positive definite, got eigenvalue 0"),
        # the first violating client is named, and for it mu, then ell, then c_radius
        ((_client([1.0, 2.0]), _client([0.5, 2.0]), _client([0.25, 2.0])), [0.5, 0.25, 0.25], BOUNDS,
         InvalidInputError, "client 1: eigenvalue 0.5 below mu=1.0"),
        ((_client([1.0, 2.0]), _client([2.0, 11.0], [2.0, 0.0]), _client([0.5, 2.0])), [0.5, 0.25, 0.25],
         BOUNDS, InvalidInputError, "client 1: eigenvalue 11 above ell=10.0"),
        ((_client([0.5, 20.0], [3.0, 0.0]),), [1.0], BOUNDS, InvalidInputError,
         "client 0: eigenvalue 0.5 below mu=1.0"),
        ((_client([1.0, 2.0]), _client([1.0, 2.0], [0.6, 0.8000001]), _client([0.5, 2.0])), [0.5, 0.25, 0.25],
         BOUNDS, InvalidInputError, "client 1: center norm 1.00000008 above c_radius=1.0"),
        ((_client([1.0 - 2e-9, 2.0]),), [1.0], BOUNDS, InvalidInputError,
         "client 0: eigenvalue 0.999999998 below mu=1.0"),
    ],
)
def test_population(clients, weights, bounds, error, message):
    assert_rejects(lambda: Population(clients=clients, weights=np.array(weights), bounds=bounds), error, message)


def test_population_slack_admits_rounding():
    pop = Population(clients=(_client([1.0 - 5e-10, 10.0 + 5e-10], [0.6, 0.8]),), weights=[1.0], bounds=BOUNDS)
    assert pop.spectra.tolist() == [[1.0 - 5e-10, 10.0 + 5e-10]]


def test_uniform_population_takes_tight_bounds():
    pop = Population.uniform([_client([1.5, 4.0], [0.3, 0.4]), _client([2.0, 3.0], [0.0, 1.0])])
    assert (pop.bounds.mu, pop.bounds.ell, pop.bounds.c_radius) == (1.5, 4.0, 1.0)


def _commuting(lams):
    return np.diag(np.asarray(lams, dtype=float))


@pytest.mark.parametrize(
    "xs, ys, error, message",
    [
        ([], [], InvalidInputError, "need matching nonempty X and Y lists"),
        ([np.eye(2)], [], InvalidInputError, "need matching nonempty X and Y lists"),
        ([np.eye(2)], [np.eye(2)] * 2, InvalidInputError, "need matching nonempty X and Y lists"),
        ([np.ones((2, 3))], [np.eye(2)], DimensionMismatchError, "X[0] must be square, got shape (2, 3)"),
        (np.eye(2), [np.eye(2)] * 2, DimensionMismatchError, "X[0] must be square, got shape (2,)"),
        ([np.eye(2), _commuting([1.0, NAN])], [np.eye(2)] * 2, InvalidInputError,
         "X[1] contains non-finite entries"),
        ([np.eye(2), ASYMMETRIC], [ASYMMETRIC, np.eye(2)], InvalidInputError, "X[1] is not symmetric"),
        ([np.eye(2)] * 2, [np.eye(2), _commuting([INF, 1.0])], InvalidInputError,
         "Y[1] contains non-finite entries"),
        ([np.eye(2)] * 2, [np.eye(2), ASYMMETRIC], InvalidInputError, "Y[1] is not symmetric"),
        ([np.eye(2)] * 2, [np.eye(2), np.eye(3)], InvalidInputError, "all matrices must share one dimension"),
        ([np.eye(2), np.eye(3)], [np.eye(2), -np.eye(3)], InvalidInputError,
         "all matrices must share one dimension"),
        ([np.eye(2)] * 2, [np.eye(2), _commuting([1.0, -1.0])], InvalidInputError,
         "weight Y[1] is not positive definite (lambda_min=-1.000e+00)"),
        ([np.eye(2)] * 2, [_commuting([1.0, 1e-13]), np.eye(2)], InvalidInputError,
         "weight Y[0] is not positive definite (lambda_min=1.000e-13)"),
        ([np.eye(2), _commuting([1.0, 2.0])], [np.eye(2), np.array([[1.0, 1.0], [1.0, 3.0]])],
         InvalidInputError, "pair 1 does not commute"),
        # the first bad pair is named, whichever check it fails
        ([_commuting([1.0, 2.0]), np.eye(2)], [np.array([[1.0, 1.0], [1.0, 3.0]]), -np.eye(2)],
         InvalidInputError, "pair 0 does not commute"),
        ([_commuting([1.0, 2.0]), np.eye(2), np.eye(3)], [np.eye(2), -np.eye(2), np.eye(3)],
         InvalidInputError, "weight Y[1] is not positive definite (lambda_min=-1.000e+00)"),
        (np.stack([np.stack([np.eye(2)] * 2)] * 2), [np.eye(2)] * 2, DimensionMismatchError,
         "X[0] must be square, got shape (2, 2, 2)"),
    ],
)
@pytest.mark.parametrize("check", [_validate_weighted_family, matrix_weighted_discrepancy])
def test_weighted_family(check, xs, ys, error, message):
    assert_rejects(lambda: check(xs, ys), error, message)


def test_weighted_family_symmetrises_rounding_asymmetry():
    x = np.array([[2.0, 1.0], [1.0 + 1e-15, 2.0]])
    xs, ys = _validate_weighted_family([x, np.eye(2)], [np.eye(2), 2.0 * np.eye(2)])
    np.testing.assert_array_equal(xs, [0.5 * (x + x.T), np.eye(2)])
    np.testing.assert_array_equal(ys, [np.eye(2), 2.0 * np.eye(2)])


def test_weighted_family_accepts_stacks_and_nested_lists():
    xs = [[[2.0, 0.0], [0.0, 3.0]], [[1.0, 0.0], [0.0, 1.0]]]
    ys = np.array([np.eye(2), 2.0 * np.eye(2)])
    got_x, got_y = _validate_weighted_family(xs, ys)
    assert got_x.shape == got_y.shape == (2, 2, 2)
    np.testing.assert_array_equal(got_x, np.array(xs))


COMPLEX_EYE = (1.0 + 1.0j) * np.eye(2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: check_symmetric(COMPLEX_EYE, "A"), "A has complex entries"),
        (lambda: ClientModel(a_matrix=COMPLEX_EYE, center=np.zeros(2)), "a_matrix has complex entries"),
        (lambda: ClientModel(a_matrix=np.eye(2), center=[1.0j, 0.0]), "center has complex entries"),
        (lambda: QuadraticExample(b_matrix=COMPLEX_EYE, center=np.zeros(2)), "b_matrix has complex entries"),
        (lambda: QuadraticExample(b_matrix=np.eye(2), center=np.array([0.0, 2.0 + 0.0j])),
         "center has complex entries"),
        (lambda: DiscreteDistribution(values=[1.0 + 1.0j, 2.0], probs=[0.5, 0.5]), "values has complex entries"),
        (lambda: DiscreteDistribution(values=[1.0, 2.0], probs=np.array([0.5, 0.5], dtype=complex)),
         "probs has complex entries"),
        (lambda: WeightScheme([1.0, 1.0j]), "coefficients has complex entries"),
        (lambda: Population(clients=(_client([1.0, 2.0]),) * 2, weights=[0.5 + 0.5j, 0.5], bounds=BOUNDS),
         "weights has complex entries"),
        (lambda: matrix_weighted_discrepancy([np.eye(2), COMPLEX_EYE], [np.eye(2)] * 2), "X[1] has complex entries"),
        (lambda: matrix_weighted_discrepancy([np.eye(2)] * 2, [np.eye(2), COMPLEX_EYE]),
         "Y[1] has complex entries"),
    ],
)
def test_complex_input_is_rejected_before_any_cast(build, message):
    """A cast to float would drop the imaginary part with only a ComplexWarning."""
    assert_rejects(build, InvalidInputError, message)


def _bad_input_population():
    clients = (_client([1.0, 2.0, 3.0], [0.1, 0.2, 0.3]), _client([2.0, 4.0, 8.0], [0.0, 0.5, 0.0]))
    return Population.uniform(clients)


def _bad_input_config():
    return RunConfig(alpha=0.0, gamma=0.01, theta=WeightScheme.first_k(3), rounds=1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "build, error, message",
    [
        # a point of the wrong dimension, checked once per call
        (lambda: server_round(_bad_input_population(), np.ones(2), _bad_input_config(),
                              auto_tune("plain", 10.0, 1.0)),
         DimensionMismatchError, "x has shape (2,), expected (3,)"),
        (lambda: client_update(_bad_input_population().clients[0], np.ones(2), _bad_input_config()),
         DimensionMismatchError, "x has shape (2,), expected (3,)"),
        (lambda: client_update_maml(_bad_input_population().clients[0], np.ones(2), 2, 0.01),
         DimensionMismatchError, "x has shape (2,), expected (3,)"),
        (lambda: surrogate_gradient(_bad_input_population(), np.ones(2), 0.0, 0.01, WeightScheme.first_k(3)),
         DimensionMismatchError, "x has shape (2,), expected (3,)"),
        # strings and ragged sequences are no arrays of real numbers
        (lambda: WeightScheme(["a"]), InvalidInputError, "coefficients must be an array of real numbers"),
        (lambda: WeightScheme([[1.0], [1.0, 2.0]]), InvalidInputError,
         "coefficients must be an array of real numbers"),
        (lambda: ClientModel(a_matrix=[["a"]], center=[0.0]), InvalidInputError,
         "a_matrix must be an array of real numbers"),
        (lambda: Population.from_stacks(np.eye(2)[None], np.zeros((1, 2)), ["x"]), InvalidInputError,
         "weights must be an array of real numbers"),
        (lambda: DiscreteDistribution(["a"], [1.0]), InvalidInputError, "values must be an array of real numbers"),
        # the Horner kernel takes a client's matrix, or a stack of them
        (lambda: distortion_matrix(_bad_input_population().clients[0], 0.0, 0.01, WeightScheme.first_k(2)),
         InvalidInputError, "a must be an array of real numbers"),
        (lambda: distortion_matrix(np.ones((2, 3)), 0.0, 0.01, WeightScheme.first_k(2)), DimensionMismatchError,
         "a must be a (d, d) matrix or an (n, d, d) stack, got shape (2, 3)"),
        # integer counts
        (lambda: phi(2.0, 0.0, 0.1, 2.5), InvalidInputError, "k must be an integer, got 2.5"),
        (lambda: psi(2.0, 0.0, 0.1, 2.5), InvalidInputError, "k must be an integer, got 2.5"),
        (lambda: client_update_maml(_bad_input_population().clients[0], np.ones(3), 2.5, 0.01),
         InvalidInputError, "k must be an integer, got 2.5"),
        (lambda: random_spd_with_spectrum(2.5, SpectrumBounds(1.0, 10.0), 0), InvalidInputError,
         "dim must be an integer, got 2.5"),
        (lambda: default_k_grid(1000, 2.5), InvalidInputError, "points must be an integer, got 2.5"),
        (lambda: default_gamma_grid(0.1, 2.5), InvalidInputError, "points must be an integer, got 2.5"),
        (lambda: checks_report(0, run_suites(trials=2.5)), InvalidInputError, "trials must be an integer, got 2.5"),
        (lambda: random_population(keyed_rng(0, 1), max_dim=2.5), InvalidInputError,
         "max_dim must be an integer, got 2.5"),
        # one rule, in one wording, for negative or NaN rates, and one for infinite ones
        (lambda: RunConfig(alpha=-1.0, gamma=0.01, theta=WeightScheme.single(), rounds=1), InvalidInputError,
         "alpha and gamma must be nonnegative, got alpha=-1.0, gamma=0.01"),
        (lambda: client_update_maml(_bad_input_population().clients[0], np.ones(3), 2, NAN), InvalidInputError,
         "alpha and gamma must be nonnegative, got alpha=0.0, gamma=nan"),
        (lambda: distortion_matrix(np.eye(2), -1.0, 0.01, WeightScheme.first_k(2)), InvalidInputError,
         "alpha and gamma must be nonnegative, got alpha=-1.0, gamma=0.01"),
        (lambda: distortion_matrix(np.eye(2), INF, 0.01, WeightScheme.first_k(2)), InvalidInputError,
         "alpha and gamma must be finite"),
        (lambda: client_update_maml(_bad_input_population().clients[0], np.ones(3), 2, INF), InvalidInputError,
         "alpha and gamma must be finite"),
        # K grids: no silent truncation, one dimension
        (lambda: SweepSpec(family="fedavg_theta", vary="K", grid=[1.5, 2.5], mu=1.0, ell=10.0, gamma=0.01),
         InvalidInputError, "K grid must hold integers, got 1.5"),
        (lambda: SweepSpec(family="fedavg_theta", vary="K", grid=[[1, 2]], mu=1.0, ell=10.0, gamma=0.01),
         InvalidInputError, "grid must be one-dimensional, got shape (1, 2)"),
        (lambda: simulated_maml_sweep(3, 1.0, 10.0, 0.0, 0.01, [1, 2.5], 0), InvalidInputError,
         "K grid must hold integers, got 2.5"),
        (lambda: simulated_maml_sweep(3, 1.0, 10.0, 0.0, 0.01, [[1, 2]], 0), InvalidInputError,
         "grid must be one-dimensional, got shape (1, 2)"),
        # a radius check for the distance bound from kappa
        (lambda: distance_bound_from_kappa(2.0, 10.0, NAN), InvalidInputError, "c_radius must be nonnegative, got nan"),
    ],
)
def test_bad_numeric_input(build, error, message):
    assert_rejects(build, error, message)
