"""Tour of the numeric core: the arbitrary-length FFT against its naive
oracle, the FFT-accelerated density estimate on a contaminated sample, and
the density at the client values that the server's kde rule picks from."""

import numpy as np

from fedfft import FftStrategy, fft, fft_select, kde_density
from fedfft.oracles import dft_naive
from fedfft.spectral import silverman_bandwidth

rng = np.random.default_rng(0)

# --- transforms agree at awkward lengths (primes included) ---------------
for n in (4, 7, 97, 256, 257):
    x = rng.normal(size=n)
    err = np.max(np.abs(fft(x) - dft_naive(x)))
    print(f"n={n:>3}: |fft - naive dft| = {err:.2e}")

# the classic hand example
print("\ndft([1,2,3,4]) =", np.round(dft_naive([1, 2, 3, 4]), 6))
print("magnitudes     =", np.round(np.abs(dft_naive([1, 2, 3, 4])), 3))

# --- density of a poisoned coordinate vector ------------------------------
# 14 honest clients cluster near 0.3; 6 colluders sit far away at 2.0
benign = rng.normal(0.3, 0.02, 14)
sample = np.concatenate([benign, np.full(6, 2.0)])
est = kde_density(sample, grid_size=256)
mode = est.grid[np.argmax(est.density)]
print(f"\nbandwidth {est.bandwidth:.4f}, density mode at {mode:.3f} "
      f"(honest cluster spans [{benign.min():.3f}, {benign.max():.3f}])")
print(f"density integrates to {np.trapezoid(est.density, est.grid):.4f}")

# --- what the server's kde rule uses: the density at the client values ----
# each distinct value counts once, so the 6 identical colluders weigh as one
distinct = np.unique(sample)
h = silverman_bandwidth(np.sort(sample))
z = (distinct[:, None] - distinct[None, :]) / h
score = np.exp(-0.5 * z * z).sum(axis=1)
for i in np.argsort(score)[::-1][:3]:
    print(f"value {distinct[i]:.6f}: density score {score[i]:.6f}")
print(f"colluders' value 2.0: density score {score[distinct == 2.0][0]:.3f}")
pick = fft_select(sample, FftStrategy(kind="kde"))
print(f"kde picks {pick.value:.6f} from client {pick.client}")
