"""Hot numeric kernels, vectorized with numpy.

All kernels are deterministic: results depend only on the inputs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BACKEND",
    "all_pass_transmission",
    "channel_noise_powers",
    "noisy_fc_forward",
]

BACKEND = "numpy"


def all_pass_transmission(cos_phi, r, a):
    """Through-port power transmission of an all-pass ring.

    T = (a^2 - 2*r*a*cos(phi) + r^2) / (1 - 2*r*a*cos(phi) + (r*a)^2)

    ``cos_phi`` may be a scalar or ndarray; ``r`` and ``a`` broadcast.
    """
    arr = np.asarray(cos_phi, dtype=np.float64)
    ra = r * a
    num = a * a - 2.0 * ra * arr + r * r
    den = 1.0 - 2.0 * ra * arr + ra * ra
    out = num / den
    return out if arr.ndim else float(out)


def channel_noise_powers(lambdas_nm, q_factor, input_powers):
    """Per-channel inter-channel crosstalk noise power.

    noise[i] = sum_{j != i} phi(i, j) * P_in[j]
    phi(i, j) = delta_i^2 / ((lambda_i - lambda_j)^2 + delta_i^2)
    delta_i   = lambda_i / (2 Q)
    """
    lam = np.asarray(lambdas_nm, dtype=np.float64)
    p = np.asarray(input_powers, dtype=np.float64)
    delta2 = (lam / (2.0 * q_factor)) ** 2
    det2 = (lam[:, None] - lam[None, :]) ** 2
    phi = delta2[:, None] / (det2 + delta2[:, None])
    np.fill_diagonal(phi, 0.0)
    return phi @ p


def noisy_fc_forward(acts, w_pos, w_neg, rho_act):
    """FPV-perturbed fully connected forward pass (dual-rail weights).

    acts:          [n_samples, n_in] imprinted activation values in [0, 1]
    w_pos / w_neg: [n_out, n_in] rail occupancies in {0, 1}
    rho_act:       [n_out, n_in] per-MR activation perturbation ratios

    out[s, o] = sum_k clip(acts[s,k] * rho_act[o,k])
                      * (w_pos[o,k] - w_neg[o,k])

    where clip(.) clamps to [0, 1]. The rails carry no ratio: weight-ring
    ratios are >= 1, so clip(w * rho) is w for w in {0, 1}.
    """
    a_eff = np.clip(acts[:, None, :] * rho_act[None, :, :], 0.0, 1.0)
    return np.sum(a_eff * (w_pos - w_neg)[None, :, :], axis=2)
