"""Every rejection path of the validated constructors, with its exact type and message.

The constructors on the verification suites' path (DiscreteDistribution,
WeightScheme, QuadraticExample, ClientModel, Population and the
matrix-weighted family check) run their checks on as few numpy calls as they
can; these cases pin the checks' order and wording, so a faster check still
names the same first problem in the same words.
"""

import numpy as np
import pytest

from local_update_lab.bounds import (
    DiscreteDistribution,
    _validate_weighted_family,
    matrix_weighted_discrepancy,
    matrix_weighted_mean,
)
from local_update_lab.errors import DimensionMismatchError, InvalidInputError
from local_update_lab.matrices import SpectrumBounds, check_symmetric
from local_update_lab.quadratics import ClientModel, Population, QuadraticExample, WeightScheme

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
    ],
)
@pytest.mark.parametrize("check", [_validate_weighted_family, matrix_weighted_mean, matrix_weighted_discrepancy])
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
