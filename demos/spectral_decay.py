"""Eigenvalue decay of classical kernels versus finite-rank feature maps.

Smooth kernels concentrate spectral mass in a few modes, rough kernels
spread it out, and a p-dimensional feature map can never exceed rank p.
"""

import tempfile
from pathlib import Path

import numpy as np

from fmgp import spectral as sp


def main():
    specs = (
        sp.RbfKernel(lengthscale=1.0),
        sp.Matern32Kernel(lengthscale=1.0),
        sp.ExpKernel(lengthscale=1.0),
        sp.MlpKernel(hidden_widths=(64,), output_dim=128),
        sp.MlpKernel(hidden_widths=(256,), output_dim=128),
        sp.MlpKernel(hidden_widths=(512,), output_dim=128),
    )
    config = sp.DecayConfig(specs=specs, n=512, d=2,
                            seeds=tuple(range(8)))
    reports = sp.decay_experiment(config)
    print(f"{len(reports)} spectra: {config.n} inputs on "
          f"[0,1]^{config.d}, {len(config.seeds)} seeds")

    print(f"\n{'kernel':34s} {'rank':>5s} {'tail>8':>10s} "
          f"{'tail>32':>10s} {'tail>128':>10s}")
    for spec in specs:
        mine = [r for r in reports if r.kernel_label == spec.label]
        rank = int(np.mean([r.numeric_rank for r in mine]))
        tails = [np.mean([r.tail_mass(k) for r in mine])
                 for k in (8, 32, 128)]
        print(f"{spec.label:34s} {rank:5d} "
              + " ".join(f"{t:10.3e}" for t in tails))

    print("\nrough (exp) vs smooth (rbf) tail mass beyond n/4 modes:")
    k = config.n // 4
    for seed in config.seeds[:3]:
        exp_r = next(r for r in reports
                     if r.kernel_label == specs[2].label and r.seed == seed)
        rbf_r = next(r for r in reports
                     if r.kernel_label == specs[0].label and r.seed == seed)
        print(f"  seed {seed}: exp {exp_r.tail_mass(k):.3e} "
              f"> rbf {rbf_r.tail_mass(k):.3e}")

    print("\nfeature-map rank never exceeds the output dimension p:")
    rng_X = np.random.default_rng(99).uniform(size=(256, 2))
    for p in (4, 16, 64):
        spec = sp.MlpKernel(hidden_widths=(32,), output_dim=p, seed=5)
        report = sp.spectrum(sp.build_gram(spec, rng_X), spec.label, seed=5)
        print(f"  p={p:3d}: numeric rank {report.numeric_rank:3d}")

    out = Path(tempfile.mkdtemp()) / "spectra.csv"
    sp.write_spectra_csv(reports, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    print(f"\nwrote {out} ({len(lines)} lines, header: {lines[0]})")


if __name__ == "__main__":
    main()
