"""Properties over the whole accepted parameter domain, not just the default pairs.

alpha and beta range over [-0.99, 50] and the degree over 1..512. Each
@example is a point where an earlier rule construction missed the Gram
tolerance or failed to build; the Gram identity also has three just outside
the drawn range, at alpha or beta = -0.999999. Hypothesis draws its cases from a
fixed seed (derandomize), so every run checks the same points.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symjacobi.basis import (
    SymmExpansion,
    analyze,
    recombine,
    symm_eigenvalues,
    synthesize,
    to_halfline,
)
from symjacobi.core import JacobiParams, eigenfunction_table, gauss_jacobi_rule, symmetric_rule
from symjacobi.norms import lp_norm, potential_norm, random_band_limited, sobolev_norm
from symjacobi.operators import dunkl_derivative
from symjacobi.squarefn import SquareFunctionSpec, square_function

PARAM = st.floats(-0.99, 50.0)
DEGREE = st.integers(1, 512)
SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)


def known_failures(test):
    for alpha, beta, degree in [
        (10.0, 0.5, 40),
        (20.0, 0.5, 100),
        (0.5, 20.0, 64),
        (5.0, 0.5, 256),
        (1.0423671293532308, 22.37750107967372, 416),
        (40.0, -0.9, 512),
        (-0.99, -0.99, 512),
        (50.0, 50.0, 400),
    ]:
        test = example(alpha=alpha, beta=beta, degree=degree)(test)
    return test


def seeded_coeffs(degree):
    return np.random.default_rng(degree).uniform(-1.0, 1.0, degree + 1)


@SETTINGS
@given(alpha=PARAM, beta=PARAM, degree=DEGREE)
@known_failures
@example(alpha=-0.999999, beta=0.0, degree=64)
@example(alpha=-0.999999, beta=0.0, degree=256)
@example(alpha=0.0, beta=-0.999999, degree=256)
def test_gram_identity_on_the_smallest_and_the_default_rule(alpha, beta, degree):
    pr = JacobiParams(alpha, beta)
    for n_nodes in (degree + 1, 2 * degree + 16):
        rule = gauss_jacobi_rule(n_nodes, pr)
        table = eigenfunction_table(degree, pr, rule.nodes)
        gram = (table * rule.weights) @ table.T
        assert np.max(np.abs(gram - np.eye(degree + 1))) <= 1e-10


@SETTINGS
@given(alpha=PARAM, beta=PARAM, degree=DEGREE)
@known_failures
def test_analyze_inverts_synthesis(alpha, beta, degree):
    pr = JacobiParams(alpha, beta)
    coeffs = seeded_coeffs(degree)
    grid = symmetric_rule(2 * degree + 16, pr)
    back = analyze(synthesize(SymmExpansion(pr, coeffs), grid), pr, degree + 1)
    assert np.max(np.abs(back.coeffs - coeffs)) <= 1e-10


@SETTINGS
@given(alpha=PARAM, beta=PARAM, degree=DEGREE)
@known_failures
def test_dunkl_eigen_relation(alpha, beta, degree):
    # -D^2 + A^2 acts on slot n as the eigenvalue (floor((n+1)/2) + A)^2
    pr = JacobiParams(alpha, beta)
    coeffs = seeded_coeffs(degree)
    lhs = -dunkl_derivative(dunkl_derivative(SymmExpansion(pr, coeffs))).coeffs
    lhs[: degree + 1] += pr.eigen_shift**2 * coeffs
    expect = symm_eigenvalues(degree + 1, pr) * coeffs
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(lhs[: degree + 1] - expect)) <= 1e-13 * scale
    assert np.max(np.abs(lhs[degree + 1 :]), initial=0.0) <= 1e-13 * scale


@SETTINGS
@given(alpha=PARAM, beta=PARAM, degree=DEGREE)
@known_failures
def test_halfline_split_round_trip(alpha, beta, degree):
    e = SymmExpansion(JacobiParams(alpha, beta), seeded_coeffs(degree))
    back = recombine(*to_halfline(e))
    assert back.params == e.params
    np.testing.assert_allclose(back.coeffs, e.coeffs, rtol=1e-15, atol=0)


@SETTINGS
@given(alpha=PARAM, beta=PARAM, degree=st.integers(1, 64))
@example(alpha=-0.99, beta=50.0, degree=64)
@example(alpha=50.0, beta=50.0, degree=64)
def test_block_rows_match_single_member_calls(alpha, beta, degree):
    # a block is one computation over its rows: row i must agree with the
    # same call on member i alone
    pr = JacobiParams(alpha, beta)
    block = random_band_limited(pr, degree, 5, seed=degree)
    grid = symmetric_rule(2 * degree + 16, pr)
    spec = SquareFunctionSpec(0.5, 1)
    f = synthesize(block, grid)
    checks = [
        (f.values, lambda e: synthesize(e, grid).values),
        (square_function(block, spec, grid.nodes), lambda e: square_function(e, spec, grid.nodes)),
    ]
    for p in (2.0, 3.0, math.inf):
        checks.append((lp_norm(f, p), lambda e, p=p: lp_norm(synthesize(e, grid), p)))
    for p in (2.0, 3.0):
        if not pr.contains_p(p):
            continue
        checks.append(
            (potential_norm(block, p, 0.7, grid), lambda e, p=p: potential_norm(e, p, 0.7, grid))
        )
        for m in (1, 2):
            checks.append(
                (sobolev_norm(block, p, m, grid), lambda e, p=p, m=m: sobolev_norm(e, p, m, grid))
            )
    for blocked, single in checks:
        assert len(blocked) == block.coeffs.shape[0]
        for i, row in enumerate(blocked):
            want = np.asarray(single(block[i]))
            assert np.max(np.abs(row - want)) <= 1e-13 * np.max(np.abs(want))
