import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from soslab.certificate import (
    SIGN_POSITIVE,
    build_certificate,
    certificate_objective,
    expansivity_table,
    positivity_graph,
)
from soslab import sdp, sos
from soslab.cli import main
from soslab.errors import EigFailure, InvalidParams
from soslab.estimators import lp_estimate, scan_estimate
from soslab.lab import Estimate, ExperimentConfig, run_gap_experiment
from soslab.matrix import NoisyMatrix, n_pairs
from soslab.models import ModelParams, Noise, generate
from soslab.sdp import MAX_ITER_REACHED, OPTIMAL, SolverOptions, project_psd, solve
from soslab.seeds import generator
from soslab.sos import Constraints, assemble_basic, assemble_level
from constructors import project_symmetrized

CVXPY_REASON = "cvxpy used only as an independent oracle"


def single_entry_matrix(c):
    return NoisyMatrix(d=2, entries=np.array([float(c)]))


def test_project_psd_identity():
    eye = np.eye(3)
    assert np.allclose(project_symmetrized(eye)[0], eye)


def test_project_psd_clamps_diagonal():
    assert np.allclose(project_symmetrized(np.diag([3.0, -2.0]))[0], np.diag([3.0, 0.0]))


def test_project_psd_rank_one_example():
    P, _ = project_symmetrized(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(P, np.full((2, 2), 0.5))


def test_project_psd_idempotent():
    rng = generator(1)
    S = rng.standard_normal((6, 6))
    P, _ = project_symmetrized(S)
    assert np.allclose(project_symmetrized(P)[0], P, atol=1e-12)
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
    # the block-model level-2 side at d=12, where most eigenvalues stay
    # positive through the whole solve
    "79x79-53-positive": (
        lambda Q: (Q * np.r_[np.linspace(0.1, 3.0, 53), -np.linspace(0.1, 3.0, 26)]) @ Q.T
    )(np.linalg.qr(_RNG.standard_normal((79, 79)))[0]),
}


@pytest.fixture
def drivers(monkeypatch):
    """Counts the calls of each LAPACK eigensolver by its name."""
    ran = Counter()
    factory = sdp._eigensolver

    def counted(name):
        driver = factory(name)

        def call(*args, **kwargs):
            ran[name] += 1
            return driver(*args, **kwargs)

        return call

    monkeypatch.setattr(sdp, "_eigensolver", counted)
    return ran


@pytest.mark.parametrize("S", PROJECTION_INPUTS.values(), ids=PROJECTION_INPUTS.keys())
def test_project_psd_matches_full_spectrum(S, drivers, monkeypatch):
    # both drivers of the solve loop's call
    runs = {}
    runs["syevr"], k_range = project_symmetrized(S)
    monkeypatch.setattr(sdp, "_FULL_ABOVE", -1)  # every count selects the full spectrum
    runs["syevd"], k_full = project_symmetrized(S)
    assert drivers == {"syevr": 1, "syevd": 1}
    assert k_range == k_full
    for name, P in runs.items():
        assert P.shape == S.shape, name
        assert np.array_equal(P, P.T), name
        assert np.abs(P - _full_spectrum_projection(S)).max() <= 1e-12, name


def test_project_psd_driver_by_previous_count(drivers):
    # the full spectrum above 12 previous positive eigenvalues, else the
    # positive range; the count returned is this projection's
    S = PROJECTION_INPUTS["79x79-53-positive"]
    counts = [project_symmetrized(S, positive=k)[1] for k in (0, 12, 13, 79)]
    assert drivers == {"syevr": 2, "syevd": 2}
    assert counts == [53] * 4


def test_project_psd_writes_into_out():
    S = PROJECTION_INPUTS["random"]
    out = np.full_like(S, np.nan)
    P, _ = project_symmetrized(S, out=out)
    assert P is out
    assert np.array_equal(P, project_symmetrized(S)[0])


def test_project_psd_overwrite_skips_symmetrization():
    # the loop's input is exactly symmetric: projected as it is, it gives
    # the bits of a symmetrized copy, and LAPACK overwrites it
    S = PROJECTION_INPUTS["random"]
    S = S + S.T
    scratch = S.copy()
    P, k = project_psd(scratch, positive=0)
    assert k == project_symmetrized(S)[1]
    assert np.array_equal(P, project_symmetrized(S)[0])
    assert not np.array_equal(scratch, S)
    # the loop's scratch is both input and output, on both drivers
    for positive in (0, len(S)):
        scratch = S.copy()
        P_in_place, _ = project_psd(scratch, out=scratch, positive=positive)
        assert P_in_place is scratch
        assert np.array_equal(P_in_place, project_psd(S.copy(), positive=positive)[0])


def test_project_psd_rejects_nan():
    S = np.eye(3)
    S[1, 2] = np.nan
    with pytest.raises(EigFailure):
        project_symmetrized(S)


def _with_rounding_level_cluster():
    # three clear positive eigenvalues, a cluster at +-1e-16, below the
    # rounding of forming S (the kernel of a moment matrix, seen through
    # rounding), and negative ones
    Q = np.linalg.qr(generator(7).standard_normal((40, 40)))[0]
    w = np.r_[3.0, 2.0, 1.0, np.tile([1e-16, -1e-16], 6), -np.linspace(0.5, 3.0, 25)]
    return (Q * w) @ Q.T


def test_project_psd_cuts_rounding_level_eigenvalues(drivers, monkeypatch):
    S = _with_rounding_level_cluster()
    S = (S + S.T) / 2.0
    w = np.linalg.eigvalsh(S)
    cut = len(S) * np.finfo(float).eps * np.linalg.norm(S)
    assert (w > 0).sum() > 3  # some of the cluster lands above 0
    assert (w > cut).sum() == 3
    P_range, k_range = project_symmetrized(S)
    monkeypatch.setattr(sdp, "_FULL_ABOVE", -1)
    P_full, k_full = project_symmetrized(S)
    assert drivers == {"syevr": 1, "syevd": 1}
    assert k_range == k_full == 3
    for P in (P_range, P_full):
        assert np.abs(P - _full_spectrum_projection(S)).max() <= 1e-12


def test_project_psd_finite_input_whose_norm_overflows():
    # entries near 1e200: the sum of squares overflows, the matrix is finite
    scale = 2.0**664
    S = PROJECTION_INPUTS["random"]
    S = (S + S.T) * scale
    assert np.vdot(S, S) == np.inf
    P, k = project_symmetrized(S)
    P_scaled, k_scaled = project_symmetrized(S / scale)
    assert k == k_scaled > 0
    tol = 1e-12 * np.abs(S).max()
    assert np.abs(P - P_scaled * scale).max() <= tol
    assert np.abs(project_symmetrized(S)[0] - P_scaled * scale).max() <= tol
    S[0, 1] = S[1, 0] = np.inf
    with pytest.raises(EigFailure, match="non-finite entries"):
        project_symmetrized(S)


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


def test_solutions_compare_by_identity_and_are_frozen():
    prog = assemble_level(NoisyMatrix(d=4, entries=np.ones(6)), 2, 1)
    a, b = solve(prog), solve(prog)
    # a generated __eq__ compared the matrix arrays, and raised
    assert (a == a, a == b) == (True, False)
    assert Estimate(a.value, a) == Estimate(a.value, a) != Estimate(b.value, b)
    with pytest.raises(FrozenInstanceError):
        a.value = 0.0


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
        em = prog.constraints.entry_map
        for r in range(len(em)):
            for c in range(len(em)):
                y[em[r, c]] = sol.matrix[r, c]
        assert np.abs(A @ y - b).max() <= 1e-6
        evals = np.linalg.eigvalsh(sol.matrix)
        assert evals[0] >= -sdp.TOL * max(1.0, evals[-1])
        assert sol.primal_residual <= sdp.TOL * (1 + abs(sol.value))
        assert sol.dual_residual <= sdp.TOL * (1 + abs(sol.value))


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
    program = assemble_basic(X, 2)
    sol = solve(program, SolverOptions(max_iter=3))
    assert sol.status == MAX_ITER_REACHED
    assert sol.iterations == 3
    # the budget, not the program, stopped it
    assert solve(program).status == OPTIMAL


def test_options_validation():
    with pytest.raises(InvalidParams, match="^max_iter must be >= 1, got 0$"):
        SolverOptions(max_iter=0)
    with pytest.raises(InvalidParams, match="^max_iter must be >= 1, got -1$"):
        solve(assemble_basic(single_entry_matrix(2.0), 2), SolverOptions(max_iter=-1))


@pytest.mark.parametrize("field", ["tol", "step"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_options_reject_non_finite_tol_and_step(field, value):
    # tol and step are constants of the solver (sdp.TOL, rho starting at
    # 1), not options: neither SolverOptions nor `soslab estimate` takes
    # them, whatever the value (a usage error exits 2 before any file is read)
    with pytest.raises(TypeError):
        SolverOptions(**{field: value})
    argv = ["estimate", "--in", "x.json", "--estimator", "sos_basic", "--s", "2"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--{field}", str(value)])
    assert exc.value.code == 2


def _with_doubled_equalities(prog):
    """The same program with its first two equalities repeated."""
    cons = prog.constraints
    doubled = Constraints(
        entry_map=cons.entry_map,
        A=scipy.sparse.vstack([cons.A, cons.A[:2]], format="csr"),
        b=np.concatenate([cons.b, cons.b[:2]]),
        d=cons.d,
        row_sets=np.concatenate([cons.row_sets, cons.row_sets[:2]]),
        # a repeated row is a family of its own
        row_families=np.concatenate([cons.row_families, cons.row_families.max() + 1 + np.arange(2)]),
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
              cons.row_sets, cons.row_families, cons.inv_m)
    arrays += tuple(getattr(M, name) for M in (cons.cell_means, cons.neg_weighted_AT, *cons.orbits)
                    for name in ("data", "indices", "indptr"))
    for arr in arrays:
        with pytest.raises(ValueError):
            arr.flat[0] = 1.0


def test_one_equality_inverse_per_constraints(monkeypatch, tmp_path):
    # every program of a shape shares one Constraints, which forms its
    # inverse once; one equal in value but built by hand forms its own,
    # and solves to the same bits
    calls = []
    inverse = sdp._equality_orbits
    monkeypatch.setattr(sdp, "_equality_orbits", lambda *args: calls.append(1) or inverse(*args))
    sos._equalities.cache_clear()
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
    copy = Constraints(
        entry_map=cons.entry_map.copy(), A=cons.A.copy(), b=cons.b.copy(), d=cons.d,
        row_sets=cons.row_sets.copy(), row_families=cons.row_families.copy(),
    )
    first = solve(prog)
    again = solve(replace(prog, constraints=copy))
    assert len(calls) == 4
    assert copy.orbits is not cons.orbits
    for f in fields(first):
        assert np.array_equal(getattr(again, f.name), getattr(first, f.name)), f.name


def _normal_matrix(cons):
    """G = A diag(1/m) A^T of the y-step, and the set-up's inverse
    ``Up @ Down``, both dense."""
    G = (cons.A @ scipy.sparse.diags(cons.inv_m) @ cons.A.T).toarray()
    down, up = cons.orbits
    return G, (up @ down).toarray()


def _random_matrix(d, seed=5):
    return NoisyMatrix(d=d, entries=generator(seed).standard_normal(n_pairs(d)))


_X8 = _random_matrix(8)
INVERSE_SHAPES = {
    "basic": assemble_basic(_X8, 3),
    "level1": assemble_level(_X8, 3, 1),
    "level2": assemble_level(_X8, 3, 2),
    "level2-d8-s4": assemble_level(_X8, 4, 2),
    "level2-d20": assemble_level(_random_matrix(20), 3, 2),
}


@pytest.mark.parametrize("prog", INVERSE_SHAPES.values(), ids=INVERSE_SHAPES.keys())
def test_setup_inverse_times_normal_matrix_is_identity(prog):
    G, G_inv = _normal_matrix(prog.constraints)
    assert np.abs(G_inv @ G - np.eye(len(G))).max() <= 1e-10


@pytest.mark.parametrize(
    "prog",
    [_with_doubled_equalities(assemble_basic(single_entry_matrix(3.0), 2)),
     _with_doubled_equalities(assemble_level(_X8, 3, 1)),
     assemble_level(_random_matrix(4, seed=11), 2, 2),
     assemble_level(_random_matrix(5), 2, 2),
     assemble_level(_random_matrix(6), 3, 2),
     assemble_level(_random_matrix(7), 3, 3)],
    ids=["doubled-basic", "doubled-level1", "rank-deficient-level2", "rank-deficient-level2-d5",
         "rank-deficient-level2-d6", "rank-deficient-level3"],
)
def test_setup_pseudo_inverse_of_dependent_equalities(prog):
    G, G_inv = _normal_matrix(prog.constraints)
    assert np.linalg.matrix_rank(G) < len(G)
    assert np.abs(G @ G_inv @ G - G).max() <= 1e-10 * np.abs(G).max()


def _assert_rejects_skewed_row(prog):
    # doubling one row of family (b) breaks the relabelling symmetry of G:
    # the set-up reads the inverse at one row per type, so it must refuse
    cons = prog.constraints
    A = cons.A.copy()
    A.data[A.indptr[2]:A.indptr[3]] *= 2.0
    skewed = Constraints(
        entry_map=cons.entry_map, A=A, b=cons.b, d=cons.d,
        row_sets=cons.row_sets, row_families=cons.row_families,
    )
    with pytest.raises(InvalidParams, match="not invariant"):
        skewed.orbits


def test_setup_rejects_equalities_without_the_symmetry():
    _assert_rejects_skewed_row(assemble_level(_X8, 3, 1))


def test_setup_rejects_dependent_equalities_without_the_symmetry():
    # the same check holds whether G is invertible or not
    _assert_rejects_skewed_row(assemble_level(_random_matrix(4, seed=11), 2, 2))


def test_setup_peak_memory_is_what_it_keeps():
    # the set-up solves one small quotient system per row type and forms no
    # n x n array of the equalities, so its peak is little more than the
    # sparse arrays it keeps and the side's packing maps (``_packing``,
    # shared by every program of that side)
    cons = sos._equalities.__wrapped__(20, 3, 2, 3)  # no set-up yet
    assemble_basic(single_entry_matrix(1.0), 2).constraints.orbits  # imports
    sdp._packing.cache_clear()
    tracemalloc.start()
    try:
        # in the order solve builds them
        setup = (cons.inv_m, cons.packed_entry)
        setup += tuple(getattr(M, name)
                       for M in (cons.cell_means, *cons.orbits, cons.neg_weighted_AT)
                       for name in ("data", "indices", "indptr"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cons) == 1352
    kept = sum(arr.nbytes for arr in setup)
    packing = sum(arr.nbytes for arr in sdp._packing(len(cons.entry_map)))
    assert peak <= 1.5 * (kept + packing)
    assert kept <= 1352**2 * 8 / 10


def test_solve_without_equalities():
    # every program has the row y[empty] = 1, and the y-step always
    # projects: a system without equality rows is refused when built
    prog = assemble_basic(NoisyMatrix(d=4, entries=np.ones(6)), 2)
    with pytest.raises(InvalidParams, match=r"^a program needs at least one equality \(y\[empty\] = 1\)$"):
        Constraints(
            entry_map=prog.constraints.entry_map,
            A=scipy.sparse.csr_matrix((0, prog.var_count)),
            b=np.zeros(0),
            d=4,
            row_sets=np.zeros((0, 2), dtype=np.int16),
            row_families=np.zeros(0, dtype=np.int64),
        )


def _add_product(out, rows, data, indices, x):
    """out += M @ x for M with these CSR triplets (``rows`` repeated from
    indptr): np.add.at adds each row's products to its entry of out in
    CSR order, as scipy's CSR kernel does."""
    np.add.at(out, rows, data * x[indices])


def _csr_rows(M):
    return np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))


def _reference_solve(program, options=None, choose_driver=True):
    """The solver loop without its buffers and short cuts, on packed
    matrices: a symmetric matrix is kept as its diagonal, then its strict
    upper triangle row by row, and its Frobenius norm squared is the sum of
    squares of that vector plus that of its off-diagonal part. The y-step
    y = y0 - diag(1/m) A^T Up Down (A y0 - b), y0 = cell means of Z - U
    + c / (rho m), with each sparse product added into its seed by
    ``np.add.at`` in CSR order (the cell means, 1/m on a diagonal cell and
    2/m on a strict upper one, and -diag(1/m) A^T built here from the entry
    map and A), the symmetrizing projection of the unpacked state into a
    fresh Z per iteration, and every residual and the value on every
    iteration. Each projection is passed the previous one's positive count,
    as in ``solve``; with ``choose_driver=False`` it is passed 0, which
    runs syevr on every iteration. The bit-for-bit oracle of the
    differential tests below."""
    options = options or SolverOptions()
    cons = program.constraints
    A, b = cons.A, cons.b
    entry, inv_m = cons.entry_map, cons.inv_m
    down, up = cons.orbits
    AT = A.T.tocsr()
    AT_rows = _csr_rows(AT)
    n = len(entry)
    upper_rows, upper_cols = np.triu_indices(n, 1)
    rows = np.r_[np.arange(n), upper_rows]
    cols = np.r_[np.arange(n), upper_cols]
    packed_entry = entry[rows, cols]
    cell_weight = np.where(np.arange(len(rows)) < n, 1.0, 2.0) * inv_m[packed_entry]
    c = program.c

    def unpacked(v):
        X = np.empty((n, n))
        X[rows, cols] = v
        X[cols, rows] = v
        return X

    def norm(v):
        return float(np.sqrt(v @ v + v[n:] @ v[n:]))

    rho = sdp._RHO_START
    rho_changes = 0
    Z = np.zeros(len(rows))
    U = np.zeros_like(Z)
    positive = n

    def residual(y):
        # A y - b, seeded with -b
        r = -b
        _add_product(r, _csr_rows(A), A.data, A.indices, y)
        return r

    def y_step(rho):
        y = c * inv_m / rho
        _add_product(y, packed_entry, cell_weight, slice(None), Z - U)
        coarse = np.zeros(down.shape[0])
        _add_product(coarse, _csr_rows(down), down.data, down.indices, residual(y))
        lam = np.zeros(len(b))
        _add_product(lam, _csr_rows(up), up.data, up.indices, coarse)
        _add_product(y, AT_rows, -(AT.data * inv_m[AT_rows]), AT.indices, lam)
        return y

    primal = dual = eq_res = psd_gap = np.inf
    value = 0.0
    it = 0
    status = MAX_ITER_REACHED
    for it in range(1, options.max_iter + 1):
        y = y_step(rho)
        My = y[packed_entry]
        Z_prev = Z
        previous = positive if choose_driver else 0
        P, positive = project_symmetrized(unpacked(My + U), positive=previous)
        Z = P[rows, cols]
        R = My - Z
        U += R
        psd_gap = norm(R)
        eq_res = float(np.max(np.abs(residual(y))))
        primal = eq_res + psd_gap
        dual = rho * norm(Z - Z_prev)
        value = float(c @ y) / program.scale
        bar = sdp.TOL * (1.0 + abs(value))
        if primal <= bar and dual <= bar and psd_gap <= sdp.TOL:
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
        matrix=y[entry],
        primal_residual=primal,
        dual_residual=dual,
        iterations=it,
        rho_changes=rho_changes,
        eq_res=eq_res,
        psd_gap=psd_gap,
        accelerated=0,
        rejected=0,
    )


def _old_formula_solve(program, options=None):
    """The loop with the y-step written as before it was one weighted
    projection: q = rho (cell sums of Z - U) + c,
    y = (q - A^T Up Down (A diag(1/m) q - rho b)) / (rho m), with scipy's
    public CSR products. The same iteration in exact arithmetic, so a
    second oracle: it must take the same decisions, not give the same
    bits."""
    options = options or SolverOptions()
    cons = program.constraints
    A, b = cons.A, cons.b
    entry, inv_m = cons.entry_map, cons.inv_m
    down, up = cons.orbits
    AT = A.T.tocsr()
    c = program.c

    rho = sdp._RHO_START
    rho_changes = 0
    Z = np.zeros(entry.shape)
    U = np.zeros_like(Z)
    positive = len(Z)
    status = MAX_ITER_REACHED
    for it in range(1, options.max_iter + 1):
        q = rho * np.bincount(entry.ravel(), weights=(Z - U).ravel(), minlength=len(c)) + c
        lam = up @ (down @ (A @ (q * inv_m) - rho * b))
        y = (q - AT @ lam) * inv_m / rho
        My = y[entry]
        Z_prev = Z
        Z, positive = project_symmetrized(My + U, positive=positive)
        U = U + My - Z
        psd_gap = float(np.linalg.norm(My - Z))
        primal = float(np.max(np.abs(A @ y - b))) + psd_gap
        dual = rho * float(np.linalg.norm(Z - Z_prev))
        value = float(c @ y) / program.scale
        bar = sdp.TOL * (1.0 + abs(value))
        if primal <= bar and dual <= bar and psd_gap <= sdp.TOL:
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
    return status, it, rho_changes, value


@pytest.fixture
def plain_loop(monkeypatch):
    """The iteration without Anderson acceleration, which the oracle loops
    below replay."""
    monkeypatch.setattr(sdp, "_AA_MEMORY", 0)


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
def test_solve_matches_reference_loop(prog, options, plain_loop):
    got = solve(prog, options)
    want = _reference_solve(prog, options)
    if options is not None:
        assert got.status == MAX_ITER_REACHED
    _assert_same_solution(got, want)


@pytest.mark.parametrize(
    "prog, options", DIFFERENTIAL_CASES.values(), ids=DIFFERENTIAL_CASES.keys()
)
def test_solve_matches_old_formula_loop(prog, options, plain_loop):
    # the y-step as one weighted projection takes the decisions of the
    # formula it replaced; the values differ in their last bits only
    got = solve(prog, options)
    status, iterations, rho_changes, value = _old_formula_solve(prog, options)
    assert (got.status, got.iterations, got.rho_changes) == (status, iterations, rho_changes)
    assert abs(got.value - value) <= 1e-12


@pytest.mark.parametrize(
    "prog", [DIFFERENTIAL_CASES[k][0] for k in ("basic", "level1", "level2", "doubled-equalities")],
    ids=["basic", "level1", "level2", "doubled-equalities"],
)
def test_y_step_is_the_weighted_least_distance_point(prog):
    # the second iteration's y-step, from the Z and U the first one leaves,
    # against the point of {A y = b} nearest to y0 in the diag(m) metric,
    # by a dense pseudo-inverse: y = y0 + m^-1/2 pinv(A m^-1/2) (b - A y0)
    cons = prog.constraints
    flat = cons.entry_map.ravel()
    first = solve(prog, SolverOptions(max_iter=1)).matrix
    Z, _ = project_psd(first.copy(), positive=len(first))
    U = first - Z
    m = np.bincount(flat)
    y0 = (np.bincount(flat, weights=(Z - U).ravel()) + prog.c) / m  # rho = 1
    A, root = cons.A.toarray(), np.sqrt(m)
    want = y0 + np.linalg.pinv(A / root) @ (cons.b - A @ y0) / root
    got = np.empty(prog.var_count)
    got[flat] = solve(prog, SolverOptions(max_iter=2)).matrix.ravel()
    assert np.abs(got - want).max() <= 1e-12
    assert np.abs(A @ got - cons.b).max() <= 1e-12


def _assert_same_solution(got, want):
    for name in ("status", "value", "primal_residual", "dual_residual", "iterations",
                 "rho_changes", "eq_res", "psd_gap"):
        assert getattr(got, name) == getattr(want, name), name
    assert np.array_equal(got.matrix, want.matrix)


def test_solve_switching_drivers_matches_reference_loop(drivers, plain_loop):
    # the positive count of this program's iterates starts above the cut,
    # falls below it, rises above it again and falls for good
    X = NoisyMatrix(d=6, entries=generator(1).standard_normal(n_pairs(6)))
    prog = assemble_level(X, 3, 2)
    got = solve(prog)
    assert drivers["syevr"] > 0 and drivers["syevd"] > 1
    assert drivers["syevr"] + drivers["syevd"] == got.iterations
    _assert_same_solution(got, _reference_solve(prog))


def test_solve_matches_syevr_only_loop(drivers, plain_loop):
    # most eigenvalues of a block-model program's iterates stay positive,
    # so solve runs the full spectrum on every iteration; the reference
    # loop passed 0 runs syevr. The iterates differ in their last bits only.
    X = generate(ModelParams(kind="sbm", d=7, s_star=3, beta_star=0.8, beta_tilde=0.8, seed=1)).matrix
    prog = assemble_level(X, 3, 2)
    got = solve(prog)
    assert drivers == {"syevd": got.iterations}
    want = _reference_solve(prog, choose_driver=False)
    assert drivers["syevr"] == want.iterations
    assert (got.status, got.iterations) == (want.status, want.iterations)
    assert abs(got.value - want.value) <= 1e-12


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


# Anderson acceleration: the mixed steps, the plain steps around them and
# the safeguard.


def _plain_solve(prog, options=None):
    """The solve without Anderson acceleration."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sdp, "_AA_MEMORY", 0)
        return solve(prog, options)


def _assert_stopped_after_a_plain_step(prog, sol):
    # the max_iter step is plain, so capping the solve at the iteration it
    # stopped at repeats it bit for bit only if that iteration was plain too
    again = solve(prog, SolverOptions(max_iter=sol.iterations))
    for f in fields(sol):
        assert np.array_equal(getattr(again, f.name), getattr(sol, f.name)), f.name


def _c06_instance(k):
    """Draw k of test_c06_relaxation_sandwich (its seed is the acceptance
    suite's BASE_SEED + 4): the matrix and s*."""
    rng = generator(20260809 + 4)
    for _ in range(k + 1):
        d = int(rng.integers(4, 11))
        s = int(rng.integers(2, min(4, d) + 1))
        X = NoisyMatrix(d=d, entries=rng.standard_normal(n_pairs(d)))
    return X, s


def test_accelerated_level2_stays_above_the_scan_on_c06_instance_35():
    # a loop that ran the stop test after mixed steps stopped early here,
    # at -0.055367 against the scan's 0.194090
    X, s = _c06_instance(35)
    assert (X.d, s) == (5, 4)
    prog = assemble_level(X, s, 2)
    sol = solve(prog)
    assert sol.status == OPTIMAL
    assert sol.accelerated > 0
    assert sol.value >= scan_estimate(X, s).value - 1e-5
    _assert_stopped_after_a_plain_step(prog, sol)


def _fuzz_matrix(kind, d, s, seed):
    if kind == "sbm":
        params = ModelParams(kind="sbm", d=d, s_star=s, beta_star=0.8, beta_tilde=0.5, seed=seed)
    else:
        beta = 1.0 if kind == "gaussian" else 0.0  # a rademacher instance is a null
        params = ModelParams(kind="submatrix", d=d, s_star=s, beta_star=beta,
                             noise=Noise(kind, 1.0), seed=seed)
    return generate(params).matrix


@settings(max_examples=30)
@given(
    kind=st.sampled_from(["gaussian", "rademacher", "sbm"]),
    d=st.integers(4, 8),
    s=st.integers(2, 4),
    level=st.sampled_from([0, 1, 2]),  # 0: the basic program
    seed=st.integers(0, 2**32 - 1),
)
def test_accelerated_solve_matches_the_plain_solve(kind, d, s, level, seed):
    X = _fuzz_matrix(kind, d, s, seed)
    prog = assemble_level(X, s, level) if level else assemble_basic(X, s)
    sol, plain = solve(prog), _plain_solve(prog)
    assert sol.status == plain.status == OPTIMAL
    assert abs(sol.value - plain.value) <= 1e-6
    _assert_stopped_after_a_plain_step(prog, sol)


@lru_cache(maxsize=1)
def _gap_program():
    """A level-2 program of the gap workload's shape: d=16, s*=3, side 137."""
    X = generate(ModelParams(kind="submatrix", d=16, s_star=3, beta_star=1.0,
                             noise=Noise("gaussian", 1.0), seed=21)).matrix
    return assemble_level(X, 3, 2)


def test_acceleration_cuts_the_gap_program_iterations():
    prog = _gap_program()
    sol, plain = solve(prog), _plain_solve(prog)
    assert sol.status == plain.status == OPTIMAL
    assert 2 * sol.iterations <= plain.iterations
    assert abs(sol.value - plain.value) <= 1e-6


def test_acceleration_state_fits_its_budget():
    # what the mixing keeps at side 137 (the history on the packed vectors)
    # adds at most 1 MiB to the solve's peak
    prog = _gap_program()
    solve(prog, SolverOptions(max_iter=2))  # the set-up and the imports
    peaks = []
    for memory in (0, sdp._AA_MEMORY):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sdp, "_AA_MEMORY", memory)
            tracemalloc.start()
            try:
                assert solve(prog, SolverOptions(max_iter=40)).accelerated > 0 or memory == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2**20


def test_safeguard_restarts_still_end_optimal():
    # while rho is far from its final value this program's iterates drift,
    # the mixes there raise the residual, and the safeguard drops them
    prog = assemble_level(_X5, 3, 2)
    sol, plain = solve(prog), _plain_solve(prog)
    assert sol.rejected > 0
    assert sol.status == plain.status == OPTIMAL
    assert abs(sol.value - plain.value) <= 1e-6
    _assert_stopped_after_a_plain_step(prog, sol)


@pytest.mark.parametrize("k", [1, 99, 100, 101])
def test_max_iter_solve_ends_on_a_plain_step(k, monkeypatch):
    # a plain last step projects M(y) + U, with U = X - Z of the projection
    # before it (divided by the new rho when rho changed at iteration 100),
    # and its residuals are read off that projection
    seen = []
    project = sdp.project_psd

    def recorded(X, *, out=None, positive):
        given = X.copy()
        Z, count = project(X, out=out, positive=positive)
        seen.append((given, Z.copy()))
        return Z, count

    monkeypatch.setattr(sdp, "project_psd", recorded)
    sol = solve(assemble_level(_X5, 3, 2), SolverOptions(max_iter=k))
    assert (sol.status, sol.iterations, len(seen)) == (MAX_ITER_REACHED, k, k)
    assert (sol.accelerated > 0) == (k > 2)
    X, Z = seen[-1]
    U = np.zeros_like(X)
    if k > 1:
        X_prev, Z_prev = seen[-2]
        rho = sol.dual_residual / np.linalg.norm(Z - Z_prev)
        assert rho == pytest.approx(2.0 ** round(np.log2(rho)), rel=1e-9)
        U = (X_prev - Z_prev) / 2.0 ** round(np.log2(rho))
    assert np.abs(X - (sol.matrix + U)).max() <= 1e-12 * np.abs(X).max()
    assert sol.psd_gap == pytest.approx(np.linalg.norm(sol.matrix - Z), rel=1e-12)
    assert sol.primal_residual == sol.eq_res + sol.psd_gap


def test_plain_loop_counts_no_mixes(plain_loop):
    for prog, options in DIFFERENTIAL_CASES.values():
        sol = solve(prog, options)
        assert (sol.accelerated, sol.rejected) == (0, 0)


# The loop's packed matrices: the diagonal, then the strict upper triangle
# row by row.


def _symmetric(n, seed):
    S = generator(seed).standard_normal((n, n))
    return S + S.T


@pytest.mark.parametrize("n", [3, 17, 137])
def test_pack_then_unpack_returns_the_symmetric_matrix(n):
    X = _symmetric(n, seed=n)
    pack, unpack = sdp._packing(n)
    v = X.take(pack)
    rows, cols = np.triu_indices(n, 1)
    assert np.array_equal(v, np.r_[np.diag(X), X[rows, cols]])
    assert np.array_equal(v.take(unpack), X)


@pytest.mark.parametrize("n", [3, 17, 137])
def test_packed_norm_is_the_frobenius_norm(n):
    # the loop's psd_gap and dual residual: |v|^2 + |v[n:]|^2 counts each
    # off-diagonal entry twice
    X = _symmetric(n, seed=n)
    v = X.take(sdp._packing(n)[0])
    norm = np.sqrt(np.vdot(v, v) + np.vdot(v[n:], v[n:]))
    assert abs(norm - np.linalg.norm(X)) <= 1e-15 * np.linalg.norm(X)


@pytest.mark.parametrize("n", [3, 17])
def test_nan_in_any_packed_position_raises(n):
    # the state is unpacked into both triangles of the projection's input,
    # so a NaN anywhere in it reaches the projection's norm check
    pack, unpack = sdp._packing(n)
    state = _symmetric(n, seed=n).take(pack)
    for p in range(len(pack)):
        v = state.copy()
        v[p] = np.nan
        T = v.take(unpack)
        with pytest.raises(EigFailure, match="non-finite entries"):
            project_psd(T, out=T, positive=n)


def test_nan_in_the_loop_state_ends_the_solve(monkeypatch):
    # a first projection with a NaN at one packed position (both cells)
    # puts it into U and, through the y-step, into the next state
    prog = assemble_level(_X5, 2, 1)
    n = len(prog.constraints.entry_map)
    pack, _ = sdp._packing(n)
    project = sdp.project_psd
    for p in pack:
        calls = []

        def poisoned(X, *, out=None, positive):
            Z, count = project(X, out=out, positive=positive)
            if not calls:
                Z.flat[p] = Z.T.flat[p] = np.nan
            calls.append(count)
            return Z, count

        monkeypatch.setattr(sdp, "project_psd", poisoned)
        with pytest.raises(EigFailure, match="non-finite entries"):
            solve(prog)
        assert len(calls) == 1


def test_solve_peak_memory_at_side_137():
    # the loop keeps its matrices packed; the loop that kept them n x n
    # peaked at 1,869,708 bytes in this solve (tracemalloc, numpy 2.4.6)
    prog = _gap_program()
    solve(prog, SolverOptions(max_iter=2))  # the set-up and the imports
    tracemalloc.start()
    try:
        assert solve(prog).status == OPTIMAL
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_869_708


def test_rank_deficient_equalities_level2():
    # at d=4, s*=2 the level-2 family (b) has 16 rows of rank 11, and the
    # Cholesky factorization of the normal system does not fail on it
    X = NoisyMatrix(d=4, entries=generator(11).standard_normal(n_pairs(4)))
    prog = assemble_level(X, 2, 2)
    sol = solve(prog)
    assert sol.status == OPTIMAL
    A, b = prog.constraints.A, prog.constraints.b
    y = np.zeros(prog.var_count)
    y[prog.constraints.entry_map.ravel()] = sol.matrix.ravel()
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
