import numpy as np
import pytest

from soslab.errors import InvalidParams, RademacherWithSignal
from soslab.matrix import n_pairs
from soslab.models import ModelParams, Noise, generate, sample_support
from soslab.seeds import generator, mix_seed
from constructors import entry, matrix_from_dense, pairs


def submatrix_params(**kw):
    base = dict(
        kind="submatrix", d=4, s_star=2, beta_star=1.0, noise=Noise("gaussian", 1.0), seed=0
    )
    base.update(kw)
    return ModelParams(**base)


def sbm_params(**kw):
    base = dict(kind="sbm", d=4, s_star=2, beta_star=1.0, beta_tilde=1.0, seed=0)
    base.update(kw)
    return ModelParams(**base)


def test_noiseless_mode_reproduces_mean():
    # reference: the mean, beta_star inside the support and 0 elsewhere,
    # by a per-pair loop in storage order
    params = submatrix_params(beta_star=5.0, noise=Noise("gaussian", 0.0), seed=7)
    inst = generate(params)
    expected = [5.0 if i in inst.support and j in inst.support else 0.0 for i, j in pairs(4)]
    assert inst.matrix.entries.tolist() == expected


def test_rademacher_entries_two_point():
    params = submatrix_params(d=3, beta_star=0.0, noise=Noise("rademacher", 1.0), seed=1)
    inst = generate(params)
    assert set(inst.matrix.entries) <= {-1.0, 1.0}


def test_rademacher_rejects_signal():
    with pytest.raises(RademacherWithSignal):
        generate(submatrix_params(beta_star=0.5, noise=Noise("rademacher", 1.0)))


def test_determinism():
    params = submatrix_params(d=12, s_star=3, seed=99)
    a = generate(params)
    b = generate(params)
    assert a.support == b.support
    assert np.array_equal(a.matrix.entries, b.matrix.entries)
    c = generate(submatrix_params(d=12, s_star=3, seed=100))
    assert not np.array_equal(a.matrix.entries, c.matrix.entries)


def test_gaussian_null_mean_concentrates():
    # d=40 null: the average of the 780 entries should sit within
    # 4/sqrt(780) of zero for the vast majority of seeds.
    d, bound = 40, 4.0 / np.sqrt(n_pairs(40))
    hits = 0
    for seed in range(100):
        inst = generate(submatrix_params(d=d, s_star=3, beta_star=0.0, seed=seed))
        hits += abs(inst.matrix.entries.mean()) <= bound
    assert hits >= 93


def test_sbm_complete_graph():
    inst = generate(sbm_params(seed=1))
    assert np.all(inst.matrix.entries == 1.0)


def test_sbm_single_triangle():
    inst = generate(sbm_params(d=5, s_star=3, beta_star=1.0, beta_tilde=0.0, seed=3))
    assert inst.matrix.entries.sum() == 3.0
    members = sorted(inst.support)
    for a in range(3):
        for b in range(a + 1, 3):
            assert entry(inst.matrix, members[a], members[b]) == 1.0


def test_sbm_entries_binary():
    inst = generate(sbm_params(d=10, s_star=4, beta_star=0.7, beta_tilde=0.3, seed=5))
    assert inst.matrix.is_binary()


def test_sbm_edge_count_concentrates():
    # beta = beta_tilde = 1/2 at d=40: Binomial(780, 1/2) edge count.
    m = n_pairs(40)
    bound = 4.0 * np.sqrt(m * 0.25)
    hits = 0
    for seed in range(100):
        inst = generate(sbm_params(d=40, s_star=5, beta_star=0.5, beta_tilde=0.5, seed=seed))
        hits += abs(inst.matrix.entries.sum() - m / 2) <= bound
    assert hits >= 93


def test_sample_support_uniformish():
    rng = generator(0)
    seen = {frozenset(sample_support(5, 2, rng)) for _ in range(400)}
    assert len(seen) == 10  # all C(5,2) subsets appear


def test_param_validation():
    with pytest.raises(InvalidParams):
        submatrix_params(s_star=1)
    with pytest.raises(InvalidParams):
        submatrix_params(s_star=9)
    with pytest.raises(InvalidParams):
        sbm_params(beta_tilde=0.9, beta_star=0.5)
    with pytest.raises(InvalidParams):
        sbm_params(beta_star=1.5, beta_tilde=1.0)
    with pytest.raises(InvalidParams):
        submatrix_params(noise=Noise("gaussian", -1.0))
    with pytest.raises(InvalidParams):
        submatrix_params(noise=Noise("rademacher", 0.0), beta_star=0.0)
    with pytest.raises(InvalidParams, match="^unknown model kind 'planted'$"):
        submatrix_params(kind="planted")
    with pytest.raises(InvalidParams, match="^d must be >= 2$"):
        submatrix_params(d=1)
    with pytest.raises(InvalidParams, match="^submatrix model requires a noise spec$"):
        submatrix_params(noise=None)
    with pytest.raises(InvalidParams, match="^sbm requires beta_tilde$"):
        sbm_params(beta_tilde=None)


def test_params_dict_round_trip():
    # the ground-truth format of matrix files, pinned field by field
    assert submatrix_params(d=9, s_star=3, seed=17).to_dict() == {
        "kind": "submatrix", "d": 9, "s_star": 3, "beta_star": 1.0, "seed": 17,
        "noise": {"kind": "gaussian", "sigma": 1.0},
    }
    assert submatrix_params(beta_star=0.0, noise=Noise("rademacher", 2.0), seed=4).to_dict() == {
        "kind": "submatrix", "d": 4, "s_star": 2, "beta_star": 0.0, "seed": 4,
        "noise": {"kind": "rademacher", "nu": 2.0},
    }
    assert sbm_params(d=6, s_star=3, beta_star=0.8, beta_tilde=0.2, seed=12).to_dict() == {
        "kind": "sbm", "d": 6, "s_star": 3, "beta_star": 0.8, "seed": 12, "beta_tilde": 0.2,
    }


def test_params_reject_the_other_models_parameter():
    # a draw ignores it, so the ground truth would record a parameter the
    # instance was not drawn with
    with pytest.raises(InvalidParams, match="^beta_tilde: not a parameter of the submatrix model$"):
        generate(submatrix_params(beta_tilde=0.3))
    with pytest.raises(InvalidParams, match="^noise: not a parameter of the sbm model$"):
        generate(sbm_params(noise=Noise("gaussian", 1.0)))


def test_sbm_exchangeable_null_statistics_relabel_invariant():
    # with beta = beta_tilde the law ignores the support, so relabeling the
    # vertices leaves every label-free estimator value unchanged
    from soslab.estimators import avg_estimate, max_estimate, scan_estimate

    inst = generate(sbm_params(d=9, s_star=3, beta_star=0.5, beta_tilde=0.5, seed=44))
    dense = inst.matrix.to_dense()
    rng = generator(45)
    perm = rng.permutation(9)
    relabeled = np.zeros_like(dense)
    relabeled[np.ix_(perm, perm)] = dense
    Y = matrix_from_dense(relabeled)
    assert max_estimate(Y) == max_estimate(inst.matrix)
    assert avg_estimate(Y, 3) == avg_estimate(inst.matrix, 3)
    assert scan_estimate(Y, 3).value == scan_estimate(inst.matrix, 3).value


def test_mix_seed_spreads():
    seeds = {mix_seed(1, k) for k in range(1000)}
    assert len(seeds) == 1000
    assert mix_seed(1, 0) != mix_seed(2, 0)
