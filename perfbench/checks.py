"""Correctness checks against references the benchmark computes itself.

Nothing here imports fmgp.  The feature map is evaluated from the saved
model's weights with the benchmark's own numpy code, and every posterior
is recomputed from the paper's formulas with a direct solve.  Each check
belongs to one program operation (a set-up, the fit, a calibration call,
a predict call or a save/load); an operation with any failed check counts
as one failed operation.

The tolerances below were fixed before the benchmark was first run and
are not tuned to results.  Float64 reference and program differ only by
rounding: with condition numbers below about 1e6 on these workloads that
is under 1e-9 relative, so 1e-6 leaves a wide margin while a shifted or
mis-scaled output is still caught.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import scipy.linalg

import workloads

LAYER_NORM_EPS = 1e-5   # part of the model definition, as in the paper's MLP

MEAN_TOL = 1e-6         # |mean - ref| <= MEAN_TOL * (1 + max |ref|)
VAR_TOL = 1e-6          # |var - ref| <= VAR_TOL * prior variance scale
STATS_TOL = 1e-12       # whitening statistics, relative
GRAM_TOL = 1e-9         # decomposition vs Phi^T Phi, relative to its scale
RECAL_FACTOR_TOL = 1e-9 # a second recalibration returns factor 1
PROB_SUM_TOL = 1e-12    # probability rows sum to 1
NLL_TOL = 1e-9          # NLL at the fitted T may not exceed NLL at T=1
MSE_NOISE_FACTOR = 2.5  # test MSE <= factor * generating noise variance
BAYES_MARGIN = 0.05     # error rate <= Bayes error + margin
BAYES_MC_ROWS = 200_000
BAYES_MC_SEED = 20_260_101


class Ledger:
    """Counts attempted and failed operations and keeps the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, op, check, *args):
        self.attempted += 1
        try:
            problems = check(*args)
        except Exception as exc:  # a check that cannot run is a failed check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.failures.append(f"{op}: " + "; ".join(problems))


def array_digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------- references

def mlp_features(doc, X):
    """Evaluate a saved feature map document on inputs X."""
    kind = doc.get("kind", "mlp")
    if kind == "product":
        left = mlp_features(doc["left"], X)
        right = mlp_features(doc["right"], X)
        # column i of the left map times column j of the right map lands
        # in column i + j * p1 (0-based)
        return (right[:, :, None] * left[:, None, :]).reshape(X.shape[0], -1)
    if kind == "additive":
        return np.hstack([mlp_features(doc["left"], X), mlp_features(doc["right"], X)])
    if kind != "mlp" or doc["activation"] != "relu":
        raise ValueError(f"unsupported feature map {kind!r}")
    h = X
    layers = doc["layers"]
    for l, layer in enumerate(layers):
        a = h @ np.asarray(layer["weight"]) + np.asarray(layer["bias"])
        if l == len(layers) - 1:
            h = a
            break
        if doc["normalization"] == "layer_norm":
            centered = a - a.mean(axis=1, keepdims=True)
            var = (centered ** 2).mean(axis=1, keepdims=True)
            a = (centered / np.sqrt(var + LAYER_NORM_EPS) * np.asarray(layer["ln_gain"])
                 + np.asarray(layer["ln_offset"]))
        h = np.maximum(a, 0.0)
    if doc["rescale_to_unit"]:
        norms = np.linalg.norm(h, axis=1, keepdims=True)
        h = h / np.where(norms > 0.0, norms, 1.0)
    return h


class Reference:
    """The benchmark's own split bookkeeping and whitening of the raw CSV."""

    def __init__(self, spec, raw_X, raw_target, arrays):
        self.spec = spec
        self.split = {k: np.asarray(arrays[k]) for k in ("train", "test", "recalibration")}
        train = self.split["train"]
        self.means = raw_X[train].mean(axis=0)
        stds = raw_X[train].std(axis=0)
        self.stds = np.where(stds == 0, 1.0, stds)
        self.X = (raw_X - self.means) / self.stds
        self.task = spec["task"]
        self.n = raw_X.shape[0]
        if self.task == "regression":
            self.target_mean = float(raw_target[train].mean())
            self.target_std = float(raw_target[train].std()) or 1.0
            self.y = (raw_target - self.target_mean) / self.target_std
        else:
            self.target_mean, self.target_std = 0.0, 1.0
            self.y = np.asarray(raw_target, dtype=np.int64)

    def part(self, name):
        idx = self.split[name]
        return self.X[idx], self.y[idx]


def regression_posterior_dense(model, phi, y, psi):
    """Dense Cholesky GP posterior with k = sf2 phi.phi' + sx2 delta."""
    sf2, sx2 = model["sigma_f_sq"], model["sigma_xi_sq"]
    K = sf2 * (phi @ phi.T) + sx2 * np.eye(phi.shape[0])
    cho = scipy.linalg.cho_factor(K, lower=True)
    k_star = sf2 * (psi @ phi.T)
    mean = k_star @ scipy.linalg.cho_solve(cho, y)
    solved = scipy.linalg.cho_solve(cho, k_star.T)
    var = sf2 * np.sum(psi * psi, axis=1) - np.sum(k_star * solved.T, axis=1)
    return mean, var, var + sx2


def regression_posterior_pxp(model, gram, phi_t_y, psi):
    """Same posterior from p x p sums: (A + gI)^-1 with A = Phi'Phi, g = sx2/sf2."""
    sf2, sx2 = model["sigma_f_sq"], model["sigma_xi_sq"]
    g = sx2 / sf2
    cho = scipy.linalg.cho_factor(gram + g * np.eye(gram.shape[0]), lower=True)
    mean = psi @ scipy.linalg.cho_solve(cho, phi_t_y)
    var = sf2 * g * np.sum(psi * scipy.linalg.cho_solve(cho, psi.T).T, axis=1)
    return mean, var, var + sx2


def dirichlet_targets(labels, num_classes, alpha_eps):
    alpha = np.full((labels.size, num_classes), alpha_eps)
    alpha[np.arange(labels.size), labels] += 1.0
    noise = np.log(1.0 / alpha + 1.0)
    return np.log(alpha) - noise / 2.0, noise


def class_posterior_pxp(model, phi, labels, psi):
    """Per-class Dirichlet surrogate posterior through a p x p solve.

    With s2 = surrogate noise + sigma_xi_sq_c and Phi_w = Phi / s, the
    class-c mean is v psi (v A + I)^-1 Phi_w' y_w and the variance
    v psi (v A + I)^-1 psi', where A = Phi_w' Phi_w and v = sigma_f_sq_c.
    """
    C = model["num_classes"]
    y_tilde, s_tilde = dirichlet_targets(labels, C, model["surrogate_noise_policy"]["alpha_eps"])
    means = np.empty((psi.shape[0], C))
    variances = np.empty((psi.shape[0], C))
    for c, entry in enumerate(model["per_class"]):
        v = entry["sigma_f_sq"]
        s = np.sqrt(s_tilde[:, c] + entry["sigma_xi_sq"])
        phi_w = phi / s[:, None]
        cho = scipy.linalg.cho_factor(v * (phi_w.T @ phi_w) + np.eye(phi.shape[1]),
                                      lower=True)
        means[:, c] = v * (psi @ scipy.linalg.cho_solve(cho, phi_w.T @ (y_tilde[:, c] / s)))
        variances[:, c] = v * np.sum(psi * scipy.linalg.cho_solve(cho, psi.T).T, axis=1)
    return means, variances


def mc_nll(means, variances, labels, temperature, num_samples, seed):
    """Holdout NLL of Monte Carlo softmax probabilities at one temperature.

    The draws follow the temperature search's documented scheme, one
    (samples, rows, classes) standard-normal block from the seed, so the
    comparison between T and T=1 uses common random numbers.
    """
    eps = np.random.default_rng(seed).standard_normal((num_samples, *means.shape))
    logits = (means + np.sqrt(variances) * eps) / temperature
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    probs = logits.mean(axis=0)
    picked = probs[np.arange(labels.size), labels]
    return float(-np.mean(np.log(np.maximum(picked, 1e-300))))


def bayes_error():
    """Error of the nearest-center rule on the known blob mixture (MC)."""
    rng = np.random.default_rng(BAYES_MC_SEED)
    centers = workloads.blob_centers()
    labels = rng.integers(workloads.BLOB_CLASSES, size=BAYES_MC_ROWS)
    X = centers[labels] + rng.standard_normal((BAYES_MC_ROWS, workloads.BLOB_DIM))
    d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(d2.argmin(axis=1) != labels))


# -------------------------------------------------------------------- checks

def check_setup(ref, summary):
    problems = []
    spec = ref.spec
    expected = {"test": spec["test_n"], "recalibration": spec["recal_n"],
                "train": spec["rows"] - spec["test_n"] - spec["recal_n"]}
    if summary["split_sizes"] != expected:
        problems.append(f"split sizes {summary['split_sizes']} != {expected}")
    scale = np.maximum(np.abs(ref.means), ref.stds)
    if not np.all(np.abs(np.asarray(summary["feature_means"]) - ref.means) <= STATS_TOL * scale):
        problems.append("feature means differ from the reference")
    if not np.all(np.abs(np.asarray(summary["feature_stds"]) - ref.stds) <= STATS_TOL * ref.stds):
        problems.append("feature stds differ from the reference")
    t_scale = max(abs(ref.target_mean), ref.target_std)
    if (abs(summary["target_mean"] - ref.target_mean) > STATS_TOL * t_scale
            or abs(summary["target_std"] - ref.target_std) > STATS_TOL * t_scale):
        problems.append("target normalization differs from the reference")
    if ref.task == "classification":
        identity = [[float(c), c] for c in range(workloads.BLOB_CLASSES)]
        if summary["label_map"] != identity:
            problems.append(f"label map {summary['label_map']} is not the identity")
    return problems


def check_split(ref):
    sizes = [ref.split[k].size for k in ("train", "test", "recalibration")]
    union = np.sort(np.concatenate([ref.split[k] for k in ("train", "test", "recalibration")]))
    if sum(sizes) != ref.n or not np.array_equal(union, np.arange(ref.n)):
        return ["split blocks are not a partition of the rows"]
    return []


def check_decomposition(model, phi, y):
    """The saved decomposition reproduces Phi'Phi and Phi'y of all train rows."""
    dec = model["decomposition"]
    u = np.asarray(dec["u"])
    lam = np.asarray(dec["eigenvalues"])
    gram = phi.T @ phi
    problems = []
    if dec["n"] != phi.shape[0]:
        problems.append(f"decomposition n={dec['n']}, train rows {phi.shape[0]}")
    problems += compare("U diag(lam) U' vs Phi'Phi", (u * lam) @ u.T, gram,
                        GRAM_TOL * np.abs(gram).max())
    problems += compare("U proj_targets vs Phi'y", u @ np.asarray(dec["proj_targets"]),
                        phi.T @ y, GRAM_TOL * float((np.abs(phi).T @ np.abs(y)).max()))
    return problems


def compare(label, value, reference, tol):
    err = float(np.max(np.abs(np.asarray(value) - reference), initial=0.0))
    return [] if err <= tol else [f"{label} off by {err:.3e} (tolerance {tol:.1e})"]


def check_regression_posterior(pred, ref_pred, sf2):
    mean, var, obs = ref_pred
    return (compare("mean", pred[0], mean, MEAN_TOL * (1.0 + np.abs(mean).max()))
            + compare("variance", pred[1], var, VAR_TOL * sf2)
            + compare("observation variance", pred[2], obs, VAR_TOL * sf2))


def check_class_posterior(arrays, ref_post, sf2_max):
    mean, var = ref_post
    return (compare("class posterior mean", arrays["post_means"], mean,
                    MEAN_TOL * (1.0 + np.abs(mean).max()))
            + compare("class posterior variance", arrays["post_variances"], var,
                      VAR_TOL * sf2_max))


def check_digest(result, key, k, first):
    if result[key][k] != first:
        return [f"{key}[{k}] is not bit-identical to the first output"]
    return []


def check_recal_first(arrays, factor):
    problems = []
    if not np.array_equal(arrays["mean_before_recal"], arrays["mean"]):
        problems.append("recalibration changed the predictive means")
    if not (np.isfinite(factor) and factor > 0):
        problems.append(f"recalibration factor {factor} is not positive")
    return problems


def check_same_factor(factor, first):
    """A refit with the same seed recalibrates to the same factor or T."""
    if factor != first:
        return [f"calibrating a refit model gave {factor!r}, the first fit {first!r}"]
    return []


def check_recal_again(factor):
    if not abs(factor - 1.0) <= RECAL_FACTOR_TOL:
        return [f"second recalibration factor {factor!r} != 1"]
    return []


def check_mse(pred_mean, y_test, target_std, noise_sd):
    mse = float(np.mean((pred_mean - y_test) ** 2))
    bound = MSE_NOISE_FACTOR * (noise_sd / target_std) ** 2
    return [] if mse <= bound else [f"test MSE {mse:.4g} above bound {bound:.4g}"]


def check_probabilities(probs, digest):
    problems = []
    if array_digest(probs) != digest:
        problems.append("stored probabilities do not match their digest")
    if not (np.all(probs >= 0.0) and np.all(probs <= 1.0)):
        problems.append("probabilities outside [0, 1]")
    return problems + compare("probability row sums", probs.sum(axis=1), 1.0, PROB_SUM_TOL)


def check_temperature(temperature, probs, probs_t1, cal_post, y_cal, spec):
    if not (np.isfinite(temperature) and temperature > 0):
        return [f"temperature {temperature} is not positive"]
    problems = []
    if not np.array_equal(probs.argmax(axis=1), probs_t1.argmax(axis=1)):
        problems.append("argmax changed under the fitted temperature")
    nll_t = mc_nll(*cal_post, y_cal, temperature, spec["num_samples"], spec["seed"])
    nll_1 = mc_nll(*cal_post, y_cal, 1.0, spec["num_samples"], spec["seed"])
    if nll_t > nll_1 + NLL_TOL:
        problems.append(f"holdout NLL at T={temperature:.4g} is {nll_t:.6g} > {nll_1:.6g} at T=1")
    return problems


def check_error_rate(probs, y_test, bayes):
    err = float(np.mean(probs.argmax(axis=1) != y_test))
    bound = bayes + BAYES_MARGIN
    return [] if err <= bound else [f"error rate {err:.4f} above Bayes {bayes:.4f} + margin"]


def check_first_block(ledger, spec, ref, block):
    """Reference checks on the outputs of the first stage process."""
    result, arrays = block["result"], block["arrays"]
    model = json.loads(block["model_bytes"])
    X_train, y_train = ref.part("train")
    X_test, y_test = ref.part("test")
    phi = mlp_features(model["feature_map"], X_train)
    psi = mlp_features(model["feature_map"], X_test)
    first = result["predict_digests"][0]
    if spec["task"] == "regression":
        pred = (arrays["mean"], arrays["variance"], arrays["observation_variance"])
        if spec["workload"] == "regress_default":
            ledger.record("fit", lambda: check_decomposition(model, phi, y_train)
                          + check_mse(arrays["mean"], y_test, ref.target_std,
                                      workloads.REGRESS_NOISE_SD))
            ref_pred = regression_posterior_dense(model, phi, y_train, psi)
        else:
            ledger.record("fit", check_decomposition, model, phi, y_train)
            ref_pred = regression_posterior_pxp(model, phi.T @ phi, phi.T @ y_train, psi)
        ledger.record("calibrate", check_recal_first, arrays, result["first_factor"])
        ledger.record("predict", lambda: check_regression_posterior(pred, ref_pred,
                                                                    model["sigma_f_sq"])
                      + ([] if array_digest(*pred) == first
                         else ["stored predictions do not match their digest"]))
    else:
        probs = arrays["probs"]
        X_cal, y_cal = ref.part("recalibration")
        cal_post = class_posterior_pxp(model, phi, y_train,
                                       mlp_features(model["feature_map"], X_cal))
        test_post = class_posterior_pxp(model, phi, y_train, psi)
        scale = max(entry["sigma_f_sq"] for entry in model["per_class"])
        ledger.record("fit", check_error_rate, probs, y_test, bayes_error())
        ledger.record("calibrate", check_temperature, result["temperature"], probs,
                      arrays["probs_t1"], cal_post, y_cal, spec)
        ledger.record("predict", lambda: check_probabilities(probs, first)
                      + check_class_posterior(arrays, test_post, scale))


def check_later_block(ledger, spec, block, first_block):
    """A later stage process repeats the first one bit for bit."""
    result, first = block["result"], first_block["result"]
    ledger.record("fit", lambda: [] if block["model_bytes"] == first_block["model_bytes"]
                  else ["refit with the same seed saved a different model"])
    key = "first_factor" if spec["task"] == "regression" else "temperature"
    ledger.record("calibrate", check_same_factor, result[key], first[key])
    ledger.record("predict", check_digest, result, "predict_digests", 0,
                  first["predict_digests"][0])


def check_run(spec, raw_X, raw_target, blocks, setup_summaries):
    """All checks of one run; returns the Ledger."""
    ledger = Ledger()
    ref = Reference(spec, raw_X, raw_target, blocks[0]["arrays"])
    ledger.record("split", check_split, ref)
    for summary in setup_summaries:
        ledger.record("setup", check_setup, ref, summary)
    check_first_block(ledger, spec, ref, blocks[0])
    first = blocks[0]["result"]["predict_digests"][0]
    for block in blocks[1:]:
        check_later_block(ledger, spec, block, blocks[0])
    for block in blocks:
        result = block["result"]
        file_digest = hashlib.sha256(block["model_bytes"]).hexdigest()
        for k in range(1, len(result["predict_digests"])):
            ledger.record("predict", check_digest, result, "predict_digests", k, first)
        for factor in result.get("recal_factors", []):
            ledger.record("calibrate", check_recal_again, factor)
        for k in range(len(result["file_digests"])):
            ledger.record("persist", check_digest, result, "file_digests", k, file_digest)
    return ledger
