"""The coincidence count model and its accidental subtraction.

For one measurement setting the recorded coincidences mix retrieved pairs
with an uncorrelated background whose per-cell mean equals the product of
the singles means over the trial count.  Subtracting C_S * C_I / N cell by
cell therefore removes the background without bias, which this script
shows directly: a no-retrieval run scatters around zero after correction,
and a normal run recovers the true coincidence rate.
"""

import math

import numpy as np

from qcert import SourceConfig, density_from_ket, ideal_state, x_basis
from qcert.bases import PlannedSetting
from qcert.counting import CountingParams, cell_estimates, plan_means, setting_means

SETTING = PlannedSetting("demo", x_basis(2, "signal"), x_basis(2, "idler"))


def summarize(label, rho, params, trials, seeds=400):
    means = setting_means(rho, SETTING.basis_s, SETTING.basis_i, trials, params)
    true_total = trials * params.P_S * params.eta_r  # complete bases
    raw_totals, corr_totals = [], []
    plan = plan_means(rho, [SETTING], trials, params)
    for seed in range(seeds):
        counts = plan.draw(seed).counts
        raw_totals.append(counts[0].sum())
        corr_totals.append(cell_estimates(counts, corrected=True)[0].sum())
    print(f"{label}")
    print(f"  expected total:   {means.coincidences.sum():9.1f} "
          f"(retrieved {true_total:.1f} + accidental "
          f"{means.coincidences.sum() - true_total:.1f})")
    print(f"  raw mean:         {np.mean(raw_totals):9.1f}")
    print(f"  corrected mean:   {np.mean(corr_totals):9.1f}  "
          f"(std over runs {np.std(corr_totals):.1f})\n")


def main():
    rho = density_from_ket(ideal_state(SourceConfig.uniform(2)))
    trials = 10**6

    summarize("normal run (retrieval 10%, background idlers 0.4%):",
              rho, CountingParams(P_S=0.006, eta_r=0.1, P_bg_idler=0.004), trials)
    summarize("no retrieval, accidentals only:",
              rho, CountingParams(P_S=0.006, eta_r=0.0, P_bg_idler=0.004), trials)

    table = plan_means(rho, [SETTING], trials,
                       CountingParams(P_S=0.006, eta_r=0.1, P_bg_idler=0.004)).draw(seed=1)
    c, s, i, n = table.counts[:, 0]
    value, var = cell_estimates(table.counts[:, :1], corrected=True)
    print("one record in detail:")
    print(f"  coincidences {c}, singles {s}/{i}, trials {n}")
    print(f"  corrected: {value[0]:.1f} +- {math.sqrt(var[0]):.1f}")


if __name__ == "__main__":
    main()
