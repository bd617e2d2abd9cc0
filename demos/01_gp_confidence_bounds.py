"""Incremental GP regression with confidence bounds.

Fits a GP to noisy samples of a smooth function one observation at a
time and prints how the posterior mean, the confidence width, and the
running information gain evolve.
"""

import numpy as np

from congames.gp import ConfidenceParams, GpModel, beta
from congames.kernels import SquaredExponential


def target(x):
    return np.sin(3.0 * x) * np.exp(-0.5 * x * x)


def main():
    rng = np.random.default_rng(0)
    noise_scale = 0.2
    model = GpModel(SquaredExponential(lengthscale=0.7), noise_scale**2)
    params = ConfidenceParams(
        rkhs_bound=1.0,
        noise_scale=noise_scale,
        failure_prob=0.1,
        num_constraints=0,
    )

    queries = np.linspace(-2, 2, 9)[:, None]
    print("round  beta   info_gain  max_width  mean_abs_err")
    for t in range(1, 26):
        x = rng.uniform(-2, 2)
        model.add_observation(np.array([x]), target(x) + noise_scale * rng.standard_normal())
        if t % 5 == 0:
            b = beta(params, model.running_info_gain)
            means, stds = model.posterior_batch(queries)
            err = np.abs(means - target(queries[:, 0])).mean()
            print(
                f"{t:5d}  {b:5.2f}  {model.running_info_gain:9.3f}"
                f"  {2 * b * stds.max():9.3f}  {err:12.4f}"
            )

    print("\nposterior after 25 observations:")
    means, stds = model.posterior_batch(queries)
    b = beta(params, model.running_info_gain)
    for q, m, s in zip(queries[:, 0], means, stds):
        print(
            f"  x={q:+.2f}  true={target(q):+.3f}  mean={m:+.3f}"
            f"  [{m - b * s:+.3f}, {m + b * s:+.3f}]"
        )


if __name__ == "__main__":
    main()
