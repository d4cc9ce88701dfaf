"""Feature-map composition: product and additive kernels.

Checks the exact Gram identities numerically, fits single, product, and
additive models on a target with multiplicative structure, and reports
the spectral majorization slacks for the composed Gram.
"""

import warnings

import numpy as np

from fmgp import data as dt
from fmgp import features as ft
from fmgp import regression as reg
from fmgp import spectral as sp


def build_dataset(n=3000, seed=0):
    # multiplicative target: separable in the two coordinates
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 2))
    y = np.sin(6.0 * X[:, 0]) * np.cos(4.0 * X[:, 1])
    y = y + 0.05 * rng.standard_normal(n)
    raw = dt.RawTable(X, y, "regression")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return dt.prepare(raw, seed=seed, test_n=600, recal_n=600)


def component(widths, p, seed):
    return ft.init_params([2, *widths, p], seed=seed,
                          normalization="layer_norm", rescale_to_unit=True)


def gram(fmap, X):
    phi = ft.forward(fmap, X)
    return phi @ phi.T


def main():
    left = component((32,), 8, seed=1)
    right = component((32,), 8, seed=2)
    X_small = np.random.default_rng(7).uniform(size=(40, 2))

    product = ft.ProductFeatureMap(left, right)
    additive = ft.AdditiveFeatureMap(left, right)
    g_l, g_r = gram(left, X_small), gram(right, X_small)
    err_prod = np.max(np.abs(gram(product, X_small) - g_l * g_r))
    err_add = np.max(np.abs(gram(additive, X_small) - (g_l + g_r)))
    print(f"product Gram equals elementwise product: max err {err_prod:.2e}")
    print(f"additive Gram equals sum:                max err {err_add:.2e}")

    ds = build_dataset()
    print(f"\nsplits: { {k: v.size for k, v in ds.split.items()} }")
    X_test, y_test = ds.subset_arrays("test")

    config = reg.FitConfig(hidden_widths=(32, 32), output_dim=16,
                           iterations=120, seed=0)
    results = []
    for name, fmap in [
        ("single (p=16)", None),
        ("product (8 x 8 -> p=64)",
         ft.ProductFeatureMap(component((32,), 8, 1), component((32,), 8, 2))),
        ("additive (8 + 8 -> p=16)",
         ft.AdditiveFeatureMap(component((32,), 8, 1), component((32,), 8, 2))),
    ]:
        model = reg.fit(ds, config, feature_map=fmap)
        mse = float(np.mean((reg.predict(model, X_test).mean - y_test) ** 2))
        results.append((name, mse))
    print("\ntest MSE by composition (normalized units):")
    for name, mse in results:
        print(f"  {name:26s} {mse:.4f}")

    # both factors rescale to unit norm, so the tail bound applies too
    X_spec = np.random.default_rng(11).uniform(size=(128, 2))
    g1, g2 = gram(left, X_spec), gram(right, X_spec)
    upper, lower = sp.hadamard_slacks(g1, g2)
    print(f"\nmajorization slack on 128-point Grams (negative = violated):")
    print(f"  partial-sum upper bound: min slack {upper.min():+.2e}")
    print(f"  tail-sum lower bound:    min slack {lower.min():+.2e}")
    lam = sp.spectrum(g1 * g2).eigenvalues
    print(f"  product Gram trace {lam.sum():.2f} over n=128 "
          f"(unit diagonal preserved)")


if __name__ == "__main__":
    main()
