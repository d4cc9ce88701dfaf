"""The C-column MLL engine against the per-class whitened loop it replaces,
the log-variance gradients against central differences, and the row
order training hands it.

_class_loop is the earlier engine, one call per class: whiten the rows
of Phi and y by their noise, decompose the whitened Gram, and read the
value and gradients from its eigenpairs.  Both compute the same sums in
a different order.  Each gradient is a difference of two terms that
cancel near a stationary point, so, as in test_oracle_edges, its error
is measured against the sizes of its terms:

    d_phi:      c (a a^T Phi) and c K^-1 Phi, entrywise maxima
    d_log_sf2:  c/2 |Phi^T a|^2 and c/2 tr(Phi^T K^-1 Phi)
    d_log_sxi2: sigma_xi_sq/2 |a|^2 and sigma_xi_sq/2 sum 1 / s^2

with a = K^-1 y, summed over the classes for d_phi and per class for
the (C,) gradients; the value against its own size.  Every case uses

    |engine - loop| <= 1e-12 * (|first term| + |second term|)
"""

import numpy as np
import pytest

from fmgp import classification as cls
from fmgp import features as ft
from fmgp import lowrank as lr
from fmgp import regression as reg
from fmgp.errors import DomainError, NumericError, ShapeError, TrainingError

LOOP_BOUND = 1e-12


def _one_class(phi, y, log_sf2, log_sxi2, extra):
    """(MLL, d_phi, d_log_sf2, d_log_sxi2) of one column, by whitening,
    and the sizes of their terms."""
    n = phi.shape[0]
    c, sxi2 = np.exp(log_sf2), np.exp(log_sxi2)
    s2 = np.full(n, sxi2) if extra is None else extra + sxi2
    s = np.sqrt(s2)
    phi_w, y_w = phi / s[:, None], y / s
    decomp = lr.decompose(phi_w.T @ phi_w, phi_w.T @ y_w, n)
    u, lam, w = decomp.u, decomp.lam, decomp.proj_targets
    denom = c * lam + 1.0
    quad = y_w @ y_w - np.sum(c * w * w / denom)
    logdet = np.sum(np.log(s2)) + np.sum(np.log(denom))
    value = -0.5 * quad - 0.5 * logdet - 0.5 * n * reg.LOG_2PI
    b = u @ (w / denom)
    pm = phi_w @ ((u / denom) @ u.T)
    a_w = y_w - phi_w @ (c * b)
    d_sf = (0.5 * c * (b @ b), 0.5 * c * np.sum(lam / denom))
    tr_kinv = np.sum(1.0 / s2) - c * np.sum(np.einsum("ij,ij->i", pm, phi_w) / s2)
    d_sx = (0.5 * sxi2 * np.sum(a_w * a_w / s2), 0.5 * sxi2 * tr_kinv)
    d_phi = (np.outer(a_w * c / s, b), pm * (c / s)[:, None])
    sizes = (abs(value), np.max(np.abs(d_phi[0])) + np.max(np.abs(d_phi[1])),
             d_sf[0] + d_sf[1], d_sx[0] + 0.5 * sxi2 * np.sum(1.0 / s2))
    return (value, d_phi[0] - d_phi[1], d_sf[0] - d_sf[1], d_sx[0] - d_sx[1]), sizes


def _class_loop(phi, Y, log_sf2, log_sxi2, extra):
    """The summed value and d_phi, the (C,) gradients, and the sizes of
    their terms, from one _one_class call per column."""
    parts, sizes = zip(*[_one_class(phi, Y[:, j], log_sf2[j], log_sxi2[j],
                                    None if extra is None else extra[:, j])
                         for j in range(Y.shape[1])])
    summed = (sum(part[0] for part in parts), sum(part[1] for part in parts),
              np.array([part[2] for part in parts]), np.array([part[3] for part in parts]))
    return summed, (sum(size[0] for size in sizes), sum(size[1] for size in sizes),
                    np.array([size[2] for size in sizes]),
                    np.array([size[3] for size in sizes]))


def _dirichlet_case(rng, n, num_classes, order):
    labels = rng.integers(num_classes, size=n)
    labels = np.sort(labels) if order == "sorted" else labels
    return cls.dirichlet_transform(labels, 0.01, num_classes)


def _case(kind):
    rng = np.random.default_rng(["sorted", "shuffled", "continuous", "single"].index(kind))
    n, p, num_classes = 240, 12, 6
    fmap = ft.init_params([3, 24, p], seed=7, normalization="layer_norm",
                          rescale_to_unit=True)
    phi = ft.forward(fmap, rng.standard_normal((n, 3)))
    if kind in ("sorted", "shuffled"):
        Y, extra = _dirichlet_case(rng, n, num_classes, kind)
    elif kind == "continuous":
        Y = rng.standard_normal((n, num_classes))
        extra = rng.uniform(0.05, 2.0, size=(n, num_classes))
    else:
        Y, extra = rng.standard_normal((n, 1)), None
    C = Y.shape[1]
    return (phi, Y, rng.uniform(-1.0, 1.0, size=C), rng.uniform(np.log(1e-3), 0.0, size=C),
            extra)


def _runs(noise):
    """Runs of equal consecutive noise rows, counted from the rows."""
    if noise is None:
        return 1
    return 1 + sum(not np.array_equal(noise[i], noise[i - 1]) for i in range(1, len(noise)))


@pytest.mark.parametrize("kind, groups", [("sorted", 6), ("shuffled", None),
                                          ("continuous", 240), ("single", 1)])
def test_engine_matches_the_class_loop(kind, groups):
    phi, Y, log_sf2, log_sxi2, extra = _case(kind)
    if groups is not None:
        assert _runs(extra) == groups
    else:
        assert 6 < _runs(extra) < phi.shape[0]
    got = reg.gaussian_mll_parts(phi, Y, log_sf2, log_sxi2, extra)
    want, sizes = _class_loop(phi, Y, log_sf2, log_sxi2, extra)
    for name, g, w, size in zip(("value", "d_phi", "d_log_sf2", "d_log_sxi2"), got, want,
                                sizes):
        assert np.shape(g) == np.shape(w), name
        err = np.abs(np.asarray(g) - w)
        if name == "d_phi":
            err = np.max(err)
        assert np.all(err <= LOOP_BOUND * size), (name, err, size)


@pytest.mark.parametrize("kind", ["sorted", "shuffled"])
def test_log_variance_gradients_match_central_differences(kind):
    # the summed objective in each of the 2C log-variances; step and bound
    # fixed before the first run
    phi, Y, log_sf2, log_sxi2, extra = _case(kind)
    _, _, d_sf, d_sx = reg.gaussian_mll_parts(phi, Y, log_sf2, log_sxi2, extra)
    h = 1e-5
    for grad, which in ((d_sf, 0), (d_sx, 1)):
        for j in range(Y.shape[1]):
            bump = np.zeros((2, Y.shape[1]))
            bump[which, j] = h
            up = reg.gaussian_mll_parts(phi, Y, log_sf2 + bump[0], log_sxi2 + bump[1], extra)
            down = reg.gaussian_mll_parts(phi, Y, log_sf2 - bump[0], log_sxi2 - bump[1],
                                          extra)
            fd = (up[0] - down[0]) / (2 * h)
            assert abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(fd)), (which, j, grad[j], fd)


def test_rejects_mismatched_shapes():
    phi, Y, log_sf2, log_sxi2, extra = _case("sorted")
    with pytest.raises(ShapeError):
        reg.gaussian_mll_parts(phi, Y[:, 0], log_sf2[:1], log_sxi2[:1])
    with pytest.raises(ShapeError):
        reg.gaussian_mll_parts(phi, Y, log_sf2[:-1], log_sxi2, extra)
    with pytest.raises(ShapeError):
        reg.gaussian_mll_parts(phi, Y, log_sf2, log_sxi2, extra[:, :-1])
    with pytest.raises(DomainError):
        reg.gaussian_mll_parts(phi, Y, log_sf2, log_sxi2, -extra)


def _blobs(n, num_classes, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(num_classes, size=n)
    X = 3.0 * np.eye(num_classes, 2)[labels] + rng.standard_normal((n, 2))
    return X, labels


def test_class_steps_get_at_most_one_group_per_class(monkeypatch):
    groups = []
    engine = reg.gaussian_mll_parts

    def counted(phi, Y, log_sf2, log_sxi2, extra_noise=None, work=None):
        groups.append(_runs(extra_noise))
        return engine(phi, Y, log_sf2, log_sxi2, extra_noise, work=work)

    monkeypatch.setattr(reg, "gaussian_mll_parts", counted)
    X, labels = _blobs(150, 5, 3)
    Y, noise = cls.dirichlet_transform(labels, 0.01, 5)
    config = reg.FitConfig(hidden_widths=(8,), output_dim=4, iterations=6, num_subsets=3,
                           subset_size=60)
    reg.train(None, X, Y, noise, config)
    assert len(groups) == 6
    assert all(1 <= count <= 5 for count in groups)


def test_regression_subsets_keep_their_order(monkeypatch):
    seen = []
    run = reg._summed_mll

    def recorded(*args, **kwargs):
        seen.append(args[3].copy())
        return run(*args, **kwargs)

    monkeypatch.setattr(reg, "_summed_mll", recorded)
    rng = np.random.default_rng(4)
    X = rng.standard_normal((90, 2))
    config = reg.FitConfig(hidden_widths=(8,), output_dim=4, iterations=5, num_subsets=3,
                           subset_size=40, seed=2)
    reg.train(None, X, np.sin(X[:, :1]), None, config)
    subsets = reg.make_subsets(90, 3, 40, np.random.default_rng(2))
    assert len(seen) == 5
    for t, rows in enumerate(seen):
        np.testing.assert_array_equal(rows, X[subsets[t % 3]])


# Features of 2^30 make every step below exact: four such rows give a Gram
# of 2^62 in every entry, I + G rounds to that (the ones are lost), and the
# second pivot of its Cholesky factor, 2^62 - (2^31)^2, is exactly zero.
# Noise of 2^200 whitens the other columns' Grams to about 2^-138.
HUGE = 2.0 ** 30


@pytest.mark.parametrize("bad", [0, 2])
def test_a_column_without_a_cholesky_factor_is_named(bad):
    extra = np.full((4, 3), 2.0 ** 200)
    extra[:, bad] = 0.0
    with pytest.raises(NumericError, match=f"not positive definite in target column {bad} "):
        reg.gaussian_mll_parts(np.full((4, 2), HUGE), np.ones((4, 3)), np.zeros(3),
                               np.zeros(3), extra)


def test_training_reports_the_iteration_of_a_failed_factorization():
    # x -> x W + b with W = (2^30, -2^30), b = (2^30, 2^30): x = +-1 gives
    # features (2^31, 0) and (0, 2^31), a diagonal Gram, and x = 0 gives the
    # features above.  A learning rate of 1e-300 leaves every parameter, and
    # exp of both log-variances, exactly as it was, so subset 0 trains and
    # subset 1, at iteration 1, has column 1's Gram of the test above.
    fmap = ft.FeatureMap([1, 2], np.array([HUGE, -HUGE, HUGE, HUGE]))
    config = reg.FitConfig(iterations=4, num_subsets=2, subset_size=4, learning_rate=1e-300,
                           init_sigma_xi_sq=1.0, seed=5)
    X = np.zeros((8, 1))
    X[reg.make_subsets(8, 2, 4, np.random.default_rng(config.seed))[0], 0] = [1, -1, 1, -1]
    extra = np.zeros((8, 2))
    extra[:, 0] = 2.0 ** 200
    with pytest.raises(TrainingError, match="not positive definite in target column 1 ") as err:
        reg.train(fmap, X, np.ones((8, 2)), extra, config)
    assert err.value.iteration == 1


def test_training_never_decomposes_and_the_caches_once_per_class(monkeypatch):
    calls = []
    decompose = lr.decompose

    def counted(*args):
        calls.append(args)
        return decompose(*args)

    monkeypatch.setattr(lr, "decompose", counted)
    X, labels = _blobs(150, 5, 3)
    Y, noise = cls.dirichlet_transform(labels, 0.01, 5)
    config = reg.FitConfig(hidden_widths=(8,), output_dim=4, iterations=6, num_subsets=3,
                           subset_size=60)
    fmap = reg.train(None, X, Y, noise, config)[0]
    assert calls == []
    assert len(reg.build_caches(fmap, X, Y, noise)) == 5
    assert len(calls) == 5
