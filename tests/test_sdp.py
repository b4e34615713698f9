import numpy as np
import pytest

from soslab.certificate import SIGN_POSITIVE, build_certificate, expansivity_table, positivity_graph
from soslab.errors import EigFailure
from soslab.estimators import lp_estimate, scan_estimate
from soslab.matrix import NoisyMatrix, n_pairs
from soslab.models import ModelParams, Noise, gen_submatrix
from soslab.sdp import MAX_ITER_REACHED, OPTIMAL, SolverOptions, project_psd, solve
from soslab.seeds import generator
from soslab.sos import SosProgram, assemble_basic, assemble_level, objective_value

CVXPY_REASON = "cvxpy used only as an independent oracle"


def single_entry_matrix(c):
    return NoisyMatrix(d=2, entries=np.array([float(c)]))


def test_project_psd_identity():
    eye = np.eye(3)
    assert np.allclose(project_psd(eye), eye)


def test_project_psd_clamps_diagonal():
    assert np.allclose(project_psd(np.diag([3.0, -2.0])), np.diag([3.0, 0.0]))


def test_project_psd_rank_one_example():
    P = project_psd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(P, np.full((2, 2), 0.5))


def test_project_psd_idempotent():
    rng = generator(1)
    S = rng.standard_normal((6, 6))
    P = project_psd(S)
    assert np.allclose(project_psd(P), P, atol=1e-12)
    assert np.linalg.eigvalsh(P)[0] >= -1e-12


def _full_spectrum_projection(S):
    w, V = np.linalg.eigh((S + S.T) / 2.0)
    return (V * np.maximum(w, 0.0)) @ V.T


_RNG = generator(5)
_B = _RNG.standard_normal((9, 9))
PROJECTION_INPUTS = {
    "random": _RNG.standard_normal((9, 9)),
    "psd": _B @ _B.T,
    "negative-definite": -(_B @ _B.T) - np.eye(9),
    "zero": np.zeros((6, 6)),
    "1x1-positive": np.array([[2.5]]),
    "1x1-negative": np.array([[-0.5]]),
}


@pytest.mark.parametrize("S", PROJECTION_INPUTS.values(), ids=PROJECTION_INPUTS.keys())
def test_project_psd_matches_full_spectrum(S):
    P = project_psd(S)
    assert P.shape == S.shape
    assert np.abs(P - _full_spectrum_projection(S)).max() <= 1e-12


def test_project_psd_rejects_nan():
    S = np.eye(3)
    S[1, 2] = np.nan
    with pytest.raises(EigFailure):
        project_psd(S)


@pytest.mark.parametrize("c", [-1.0, 0.0, 3.0])
def test_solve_basic_two_vertices(c):
    sol = solve(assemble_basic(single_entry_matrix(c), 2))
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(c, abs=1e-5)


def test_solve_level1_all_ones():
    X = NoisyMatrix(d=4, entries=np.ones(6))
    sol = solve(assemble_level(X, 2, 1))
    assert sol.value == pytest.approx(1.0, abs=1e-5)


def test_solve_zero_objective():
    X = NoisyMatrix(d=5, entries=np.zeros(10))
    sol = solve(assemble_level(X, 2, 1))
    assert sol.value == pytest.approx(0.0, abs=1e-7)


def test_solution_feasibility_roundtrip():
    rng = generator(42)
    for _ in range(5):
        d = int(rng.integers(4, 9))
        s = int(rng.integers(2, min(4, d) + 1))
        X = NoisyMatrix(d=d, entries=rng.standard_normal(n_pairs(d)))
        prog = assemble_level(X, s, 1)
        sol = solve(prog)
        assert sol.status == OPTIMAL
        A, b = prog.constraint_arrays()
        y = np.zeros(prog.var_count)
        em = prog.entry_map
        for r in range(prog.dim):
            for c in range(prog.dim):
                y[em[r, c]] = sol.matrix[r, c]
        assert np.abs(A @ y - b).max() <= 1e-6
        evals = np.linalg.eigvalsh(sol.matrix)
        tol = 1e-7
        assert evals[0] >= -tol * max(1.0, evals[-1])
        assert sol.primal_residual <= tol * (1 + abs(sol.value))
        assert sol.dual_residual <= tol * (1 + abs(sol.value))


def test_noiseless_plant_basic_at_least_beta():
    params = ModelParams(
        kind="submatrix", d=6, s_star=3, beta_star=1.5, noise=Noise("gaussian", 0.0), seed=5
    )
    inst = gen_submatrix(params)
    sol = solve(assemble_basic(inst.matrix, 3))
    assert sol.value >= 1.5 - 1e-5


def test_relaxation_sandwich_random():
    # scan is dominated by every relaxation, and dropping constraints can
    # only raise the optimum: level2 <= level1 <= basic. The lp bound
    # dominates scan but is not comparable with the SDP values in general.
    rng = generator(314)
    for _ in range(6):
        d = int(rng.integers(4, 9))
        s = int(rng.integers(2, min(4, d) + 1))
        X = NoisyMatrix(d=d, entries=rng.standard_normal(n_pairs(d)))
        scan = scan_estimate(X, s).value
        v2 = solve(assemble_level(X, s, 2)).value
        v1 = solve(assemble_level(X, s, 1)).value
        vb = solve(assemble_basic(X, s)).value
        lp = lp_estimate(X, s)
        assert scan - 1e-5 <= v2
        assert v2 <= v1 + 1e-5
        assert v1 <= vb + 1e-5
        assert scan <= lp + 1e-12


def test_certificate_point_dominated_by_optimum():
    params = ModelParams(
        kind="submatrix", d=12, s_star=3, beta_star=0.0, noise=Noise("rademacher", 1.0), seed=33
    )
    inst = gen_submatrix(params)
    g = positivity_graph(inst.matrix, SIGN_POSITIVE)
    pe = build_certificate(expansivity_table(g, 1), 3, 1)
    sol = solve(assemble_level(inst.matrix, 3, 1))
    assert sol.value >= objective_value(inst.matrix, pe, 3) - 1e-5


def test_max_iter_status():
    X = single_entry_matrix(2.0)
    sol = solve(assemble_basic(X, 2), SolverOptions(tol=1e-12, max_iter=3))
    assert sol.status == MAX_ITER_REACHED
    assert sol.iterations == 3


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(tol=0.0).validate()
    with pytest.raises(ValueError):
        SolverOptions(max_iter=0).validate()
    with pytest.raises(ValueError):
        SolverOptions(step=-1.0).validate()


def test_redundant_equalities_fall_back_to_pseudo_inverse():
    # duplicating a constraint makes the normal system singular; the solver
    # must still project exactly onto the (consistent) affine set
    prog = assemble_basic(single_entry_matrix(3.0), 2)
    doubled = SosProgram(
        dim=prog.dim,
        var_count=prog.var_count,
        objective=prog.objective,
        constraints=prog.constraints + (prog.constraints[0], prog.constraints[1]),
        entry_map=prog.entry_map,
        scale=prog.scale,
        indexer=prog.indexer,
    )
    sol = solve(doubled)
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(3.0, abs=1e-5)


def test_rank_deficient_equalities_level2():
    # at d=4, s*=2 the level-2 family (b) has 16 rows of rank 11, and the
    # Cholesky factorization of the normal system does not fail on it
    X = NoisyMatrix(d=4, entries=generator(11).standard_normal(n_pairs(4)))
    prog = assemble_level(X, 2, 2)
    sol = solve(prog)
    assert sol.status == OPTIMAL
    A, b = prog.constraint_arrays()
    y = np.zeros(prog.var_count)
    y[prog.entry_map.ravel()] = sol.matrix.ravel()
    assert np.abs(A @ y - b).max() <= 1e-9
    scan = scan_estimate(X, 2).value
    v1 = solve(assemble_level(X, 2, 1)).value
    assert scan - 1e-5 <= sol.value <= v1 + 1e-5


def test_deterministic_given_inputs():
    X = NoisyMatrix(d=5, entries=np.arange(10, dtype=float) / 10 - 0.4)
    a = solve(assemble_level(X, 2, 1))
    b = solve(assemble_level(X, 2, 1))
    assert a.value == b.value
    assert a.iterations == b.iterations
    assert np.array_equal(a.matrix, b.matrix)


def _cvxpy_basic_value(X, s_star):
    """Independent oracle: the full (d+1)x(d+1) basic relaxation, verbatim."""
    cvxpy = pytest.importorskip("cvxpy", reason=CVXPY_REASON)
    d = X.d
    dense = X.to_dense()
    Y = np.zeros((d + 1, d + 1))
    Y[1:, 1:] = dense
    P = cvxpy.Variable((d + 1, d + 1), symmetric=True)
    constraints = [P >> 0, P[0, 0] == 1, cvxpy.sum(P[1:, 0]) == s_star]
    constraints += [P[i, i] == P[i, 0] for i in range(1, d + 1)]
    prob = cvxpy.Problem(
        cvxpy.Maximize(cvxpy.trace(Y @ P) / (s_star * (s_star - 1))), constraints
    )
    for solver in ("CLARABEL", "SCS"):
        try:
            prob.solve(solver=solver)
            break
        except (cvxpy.error.SolverError, KeyError):
            continue
    return prob.value


def test_reduced_basic_matches_full_formulation():
    pytest.importorskip("cvxpy", reason=CVXPY_REASON)
    rng = generator(2718)
    for _ in range(4):
        d = int(rng.integers(3, 7))
        s = int(rng.integers(2, d + 1))
        X = NoisyMatrix(d=d, entries=rng.standard_normal(n_pairs(d)))
        mine = solve(assemble_basic(X, s)).value
        reference = _cvxpy_basic_value(X, s)
        assert mine == pytest.approx(reference, abs=1e-5)
