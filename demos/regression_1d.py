"""Fit the low-rank GP to a rough 1-d sample path and compare it with
the exact GP that knows the generating kernel."""

import warnings

import numpy as np
from scipy.spatial.distance import cdist

from fmgp import data as dt
from fmgp import oracle_check as oc
from fmgp import regression as reg
from fmgp import spectral as sp


def main():
    kernel = sp.ExpKernel(1.0)
    sample = dt.synth_gp_sample(kernel, 2000, 1, noise_sd=0.1, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ds = dt.prepare(sample, seed=0)
    sizes = {k: v.size for k, v in ds.split.items()}
    print(f"splits: {sizes}")

    model = reg.fit(ds, reg.FitConfig(seed=0))
    X_cal, y_cal = ds.subset_arrays("recalibration")
    model = reg.recalibrate(model, X_cal, y_cal.astype(np.float64))
    print(f"fitted: sigma_f^2={model.sigma_f_sq:.4f} "
          f"sigma_xi^2={model.sigma_xi_sq:.4f} "
          f"final loss={model.training_trace[-1]:.4f}")

    X_test, y_test = ds.subset_arrays("test")
    pred = reg.predict(model, X_test)
    mse = np.mean((pred.mean - y_test) ** 2)
    nll = reg.mean_nll(pred, y_test.astype(np.float64))

    # oracle knows the true kernel; work in normalized target units
    s = ds.target_std
    raw_train = ds.subset_arrays("train")[0] * ds.feature_stds + ds.feature_means
    raw_test = X_test * ds.feature_stds + ds.feature_means
    oracle = oc.exact_gp_oracle(
        lambda a, b: np.exp(-cdist(a, b) / kernel.lengthscale) / s ** 2,
        raw_train, ds.subset_arrays("train")[1].astype(np.float64),
        (0.1 / s) ** 2, raw_test)
    mse_oracle = np.mean((oracle.mean - y_test) ** 2)
    print(f"test MSE: learned features {mse:.4f} vs exact oracle "
          f"{mse_oracle:.4f} (ratio {mse / mse_oracle:.2f})")
    print(f"test mean NLL: {nll:.4f}")

    inside = np.mean(np.abs(y_test - pred.mean)
                     <= 1.96 * np.sqrt(pred.observation_variance))
    print(f"95% interval coverage after recalibration: {inside:.3f}")

    order = np.argsort(raw_test[:, 0])[::100]
    print("\n   x        y        mean     +/- 2 sd")
    for i in order:
        half = 2.0 * np.sqrt(pred.observation_variance[i])
        print(f"{raw_test[i, 0]:8.3f} {y_test[i]:8.3f} "
              f"{pred.mean[i]:8.3f}   {half:8.3f}")


if __name__ == "__main__":
    main()
