import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse

from soslab.certificate import (
    SIGN_POSITIVE,
    build_certificate,
    certificate_objective,
    expansivity_table,
    positivity_graph,
)
from soslab import sdp, sos
from soslab.errors import EigFailure
from soslab.estimators import lp_estimate, scan_estimate
from soslab.lab import ExperimentConfig, run_gap_experiment
from soslab.matrix import NoisyMatrix, n_pairs
from soslab.models import ModelParams, Noise, generate
from soslab.sdp import MAX_ITER_REACHED, OPTIMAL, SolverOptions, project_psd, solve
from soslab.seeds import generator
from soslab.sos import Constraints, SosProgram, assemble_basic, assemble_level
from soslab.subsets import subset_indexer

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
    # the level-2 side at d=16, with the few positive eigenvalues of a
    # late iterate
    "137x137-three-positive": (
        lambda Q: (Q * np.r_[2.0, 1.0, 0.5, -np.linspace(0.1, 3.0, 134)]) @ Q.T
    )(np.linalg.qr(_RNG.standard_normal((137, 137)))[0]),
}


@pytest.mark.parametrize("S", PROJECTION_INPUTS.values(), ids=PROJECTION_INPUTS.keys())
def test_project_psd_matches_full_spectrum(S):
    P = project_psd(S)
    assert P.shape == S.shape
    assert np.array_equal(P, P.T)
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
        A, b = prog.constraints.A, prog.constraints.b
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
    inst = generate(params)
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
    inst = generate(params)
    g = positivity_graph(inst.matrix, SIGN_POSITIVE)
    pe = build_certificate(expansivity_table(g, 1), 3, 1)
    sol = solve(assemble_level(inst.matrix, 3, 1))
    assert sol.value >= float(certificate_objective(inst.matrix, pe, 3)) - 1e-5


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


@pytest.mark.parametrize("field", ["tol", "step"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_options_reject_non_finite_tol_and_step(field, value):
    # tol=inf would stop a solve at its first iterate as optimal, and
    # tol=nan never stops it before max_iter
    options = SolverOptions(**{field: value})
    with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
        options.validate()
    with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
        solve(assemble_basic(NoisyMatrix(d=6, entries=np.ones(n_pairs(6))), 2), options)


def _with_doubled_equalities(prog):
    """The same program with its first two equalities repeated."""
    cons = prog.constraints
    doubled = Constraints(
        entry_map=cons.entry_map,
        A=scipy.sparse.vstack([cons.A, cons.A[:2]], format="csr"),
        b=np.concatenate([cons.b, cons.b[:2]]),
    )
    return replace(prog, constraints=doubled)


def test_redundant_equalities_fall_back_to_pseudo_inverse():
    # duplicating a constraint makes the normal system singular; the solver
    # must still project exactly onto the (consistent) affine set
    prog = assemble_basic(single_entry_matrix(3.0), 2)
    sol = solve(_with_doubled_equalities(prog))
    assert sol.status == OPTIMAL
    assert sol.value == pytest.approx(3.0, abs=1e-5)


def test_setup_cache_keyed_on_the_equality_system():
    # the doubled program shares the plain one's shape and entry map: a
    # set-up cached under either would give one of them the other's inverse
    prog = assemble_basic(single_entry_matrix(3.0), 2)
    first = solve(prog)
    doubled = solve(_with_doubled_equalities(prog))
    again = solve(prog)
    assert doubled.status == OPTIMAL
    assert doubled.value == pytest.approx(3.0, abs=1e-5)
    assert again.value == first.value
    assert again.iterations == first.iterations
    assert np.array_equal(again.matrix, first.matrix)


def test_cached_arrays_are_read_only():
    prog = assemble_level(NoisyMatrix(d=5, entries=np.ones(10)), 2, 1)
    solve(prog)
    cons = prog.constraints
    arrays = (cons.A.data, cons.A.indices, cons.A.indptr, cons.b, cons.entry_map,
              cons.inv_m, cons.rows, cons.cols, cons.G_inv)
    for arr in arrays:
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0


def test_one_equality_inverse_per_constraints(monkeypatch, tmp_path):
    # every program of a shape shares one Constraints, which forms its
    # inverse once; one equal in value but built by hand forms its own,
    # and solves to the same bits
    calls = []
    inverse = sdp._equality_inverse
    monkeypatch.setattr(sdp, "_equality_inverse", lambda *args: calls.append(1) or inverse(*args))
    sos._basic_equalities.cache_clear()
    sos._level_equalities.cache_clear()
    cfg = ExperimentConfig.from_dict({
        "experiment": "gap",
        "grid": [{"model": "submatrix", "d": 5, "s_star": 3, "beta_star": 1.0,
                  "noise": {"kind": "gaussian", "sigma": 1.0}}],
        "estimators": ["sos_basic", "sos_level:1", "sos_level:2"],
        "replicates": 2,
        "base_seed": 6,
        "output": str(tmp_path / "gap.csv"),
    })
    for _ in range(2):
        assert all(row["error"] == "" for row in run_gap_experiment(cfg))
    assert len(calls) == 3
    prog = assemble_level(NoisyMatrix(d=5, entries=generator(6).standard_normal(10)), 3, 2)
    cons = prog.constraints
    copy = Constraints(entry_map=cons.entry_map.copy(), A=cons.A.copy(), b=cons.b.copy())
    first = solve(prog)
    again = solve(replace(prog, constraints=copy))
    assert len(calls) == 4
    assert copy.G_inv is not cons.G_inv
    for f in fields(first):
        assert np.array_equal(getattr(again, f.name), getattr(first, f.name)), f.name


def _normal_matrix(cons):
    """G = A diag(1/m) A^T of the y-step, dense, and the set-up's inverse
    read from its lower triangle, the one symv reads."""
    G = (cons.A @ scipy.sparse.diags(cons.inv_m) @ cons.A.T).toarray()
    lower = np.tril(cons.G_inv)
    return G, lower + np.tril(lower, -1).T


_X8 = NoisyMatrix(d=8, entries=generator(5).standard_normal(n_pairs(8)))
INVERSE_SHAPES = {
    "basic": assemble_basic(_X8, 3),
    "level1": assemble_level(_X8, 3, 1),
    "level2": assemble_level(_X8, 3, 2),
}


@pytest.mark.parametrize("prog", INVERSE_SHAPES.values(), ids=INVERSE_SHAPES.keys())
def test_setup_inverse_times_normal_matrix_is_identity(prog):
    G, G_inv = _normal_matrix(prog.constraints)
    kept = prog.constraints.G_inv
    assert kept.flags.f_contiguous
    assert np.array_equal(kept, kept.T)  # the upper triangle is mirrored
    assert np.abs(G_inv @ G - np.eye(len(G))).max() <= 1e-10


@pytest.mark.parametrize(
    "prog",
    [_with_doubled_equalities(assemble_basic(single_entry_matrix(3.0), 2)),
     _with_doubled_equalities(assemble_level(_X8, 3, 1)),
     assemble_level(NoisyMatrix(d=4, entries=generator(11).standard_normal(n_pairs(4))), 2, 2)],
    ids=["doubled-basic", "doubled-level1", "rank-deficient-level2"],
)
def test_setup_pseudo_inverse_of_dependent_equalities(prog):
    G, G_inv = _normal_matrix(prog.constraints)
    assert np.linalg.matrix_rank(G) < len(G)
    assert np.abs(G @ G_inv @ G - G).max() <= 1e-10 * np.abs(G).max()


def test_setup_peak_memory_is_what_it_keeps():
    # the inverse of G is factored and inverted in G's own buffer, so the
    # set-up allocates little beyond the arrays it keeps; a copy of G for
    # the factor, an identity and a solve output would read about 3.9x
    cons = sos._level_equalities.__wrapped__(subset_indexer(20, 2), 3)  # no set-up yet
    assemble_basic(single_entry_matrix(1.0), 2).constraints.G_inv  # imports
    tracemalloc.start()
    try:
        setup = (cons.inv_m, cons.rows, cons.cols, cons.G_inv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cons.G_inv.shape == (1352, 1352)
    kept = sum(arr.nbytes for arr in setup)
    assert peak <= 1.25 * kept


def test_solve_without_equalities():
    # maximize -trace M(y) over M(y) PSD alone: the optimum is M = 0, and
    # the y-step has no equalities to project onto
    prog = assemble_basic(NoisyMatrix(d=4, entries=np.ones(6)), 2)
    c = np.zeros(prog.var_count)
    c[np.diag(prog.entry_map)] = -1.0
    free = SosProgram(
        c=c,
        constraints=Constraints(
            entry_map=prog.entry_map,
            A=scipy.sparse.csr_matrix((0, prog.var_count)),
            b=np.zeros(0),
        ),
        scale=1.0,
    )
    sol = solve(free)
    assert sol.status == OPTIMAL
    assert sol.eq_res == 0.0
    assert sol.value == pytest.approx(0.0, abs=1e-6)
    assert np.linalg.eigvalsh(sol.matrix)[0] >= -1e-7


def _reference_solve(program, options=None):
    """The solver loop as it was before ``solve`` dropped scipy.sparse and
    computed residuals only when read: scipy CSR products, every residual
    on every iteration. The oracle of the differential test below."""
    options = options or SolverOptions()
    options.validate()
    cons = program.constraints
    A, b = cons.A, cons.b
    entry, inv_m, G_inv = program.entry_map, cons.inv_m, cons.G_inv
    AT = A.T.tocsr()
    entry_flat = entry.ravel()
    symv = sdp._symv()
    V = program.var_count
    c = program.c

    rho = options.step
    rho_changes = 0
    Z = np.zeros(entry.shape)
    U = np.zeros_like(Z)
    My = np.empty_like(Z)
    R = np.empty_like(Z)
    T = np.empty_like(Z)

    def y_step(rho):
        w = np.bincount(entry_flat, weights=np.subtract(Z, U, out=T).ravel(), minlength=V)
        q = rho * w + c
        lam = symv(1.0, G_inv, A @ (q * inv_m) - rho * b, lower=1)
        return (q - AT @ lam) * inv_m / rho

    primal = dual = eq_res = psd_gap = np.inf
    value = 0.0
    it = 0
    status = MAX_ITER_REACHED
    for it in range(1, options.max_iter + 1):
        y = y_step(rho)
        np.take(y, entry, out=My)
        Z_prev = Z
        Z = project_psd(np.add(My, U, out=T))
        np.subtract(My, Z, out=R)
        U += R
        psd_gap = float(np.linalg.norm(R))
        eq_res = float(np.max(np.abs(A @ y - b))) if b.size else 0.0
        primal = eq_res + psd_gap
        dual = rho * float(np.linalg.norm(np.subtract(Z, Z_prev, out=T)))
        value = float(c @ y) / program.scale
        bar = options.tol * (1.0 + abs(value))
        if primal <= bar and dual <= bar and psd_gap <= options.tol:
            status = OPTIMAL
            break
        if it % 100 == 0:
            new_rho = rho
            if primal > 10.0 * dual:
                new_rho = min(rho * 2.0, 1e4)
            elif dual > 10.0 * primal:
                new_rho = max(rho / 2.0, 1e-4)
            if new_rho != rho:
                U *= rho / new_rho
                rho = new_rho
                rho_changes += 1
    return sdp.SdpSolution(
        status=status,
        value=value,
        matrix=My,
        primal_residual=primal,
        dual_residual=dual,
        iterations=it,
        rho_changes=rho_changes,
        eq_res=eq_res,
        psd_gap=psd_gap,
    )


_X5 = NoisyMatrix(d=5, entries=generator(0).standard_normal(n_pairs(5)))
_X6 = NoisyMatrix(d=6, entries=generator(3).standard_normal(n_pairs(6)))
DIFFERENTIAL_CASES = {
    "basic": (assemble_basic(_X6, 3), None),
    "level1": (assemble_level(_X6, 3, 1), None),
    "level2": (assemble_level(_X5, 3, 2), None),
    "doubled-equalities": (_with_doubled_equalities(assemble_level(_X5, 2, 1)), None),
    **{
        f"level2-max-iter-{k}": (assemble_level(_X5, 3, 2), SolverOptions(max_iter=k))
        for k in (1, 99, 100, 101)
    },
}


@pytest.mark.parametrize(
    "prog, options", DIFFERENTIAL_CASES.values(), ids=DIFFERENTIAL_CASES.keys()
)
def test_solve_matches_reference_loop(prog, options):
    got = solve(prog, options)
    want = _reference_solve(prog, options)
    if options is not None:
        assert got.status == MAX_ITER_REACHED
    for name in ("status", "value", "primal_residual", "dual_residual", "iterations",
                 "rho_changes", "eq_res", "psd_gap"):
        assert getattr(got, name) == getattr(want, name), name
    assert np.array_equal(got.matrix, want.matrix)


def test_solution_counters():
    # this level-2 program needs a few hundred iterations and a larger rho
    X = NoisyMatrix(d=5, entries=generator(0).standard_normal(n_pairs(5)))
    sol = solve(assemble_level(X, 3, 2))
    assert sol.status == OPTIMAL
    assert sol.primal_residual == sol.eq_res + sol.psd_gap
    assert sol.eq_res <= 1e-12
    assert sol.psd_gap <= 1e-7
    assert 1 <= sol.rho_changes <= sol.iterations // 100
    assert solve(assemble_level(X, 3, 2), SolverOptions(max_iter=99)).rho_changes == 0


def test_rank_deficient_equalities_level2():
    # at d=4, s*=2 the level-2 family (b) has 16 rows of rank 11, and the
    # Cholesky factorization of the normal system does not fail on it
    X = NoisyMatrix(d=4, entries=generator(11).standard_normal(n_pairs(4)))
    prog = assemble_level(X, 2, 2)
    sol = solve(prog)
    assert sol.status == OPTIMAL
    A, b = prog.constraints.A, prog.constraints.b
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
