"""Worst-case burst SNR versus relative speed, slope by slope.

Two slopes from the zero-loss comb are compared while the phase difference
drifts: the naive first member (q=1) and the design-rule choice (q=K/2).
At 30 m the naive slope collapses by tens of dB at specific speeds; the
robust slope never gives up more than a fraction of a dB.  The exact
evaluation and the one built from the affine (linearized) fits are shown
side by side.

Run:  python3 demos/speed_sweeps.py  (writes speed_sweep_omega.csv here)
"""

import math

import numpy as np

from phasecomb import (PathlossModel, ScenarioParams, carrier_wavelength,
                       design_rule_alpha_star, pl_slope_losses, speed_sweep)

K, T = 10, 0.1


def report(res, labels) -> None:
    ref = res.series["reference_db"]
    for label in labels:
        for path in ("exact", "affine"):
            key = f"{label}_{path}_db"
            if key not in res.series:
                continue
            dip = ref - res.series[key]
            i = int(np.argmax(dip))
            print(f"  {label:7s} {path:6s}: worst dip {dip[i]:6.2f} dB "
                  f"at {res.values[i]:+.0f} km/h")


if __name__ == "__main__":
    lam = carrier_wavelength(5.9e9)
    base = ScenarioParams(d_x=30.0, d_y=-4.0, delta_v=0.0, delta_a=10.0 * lam,
                          wavelength=lam, n_packets=K, t_interval=T)
    naive = 2.0 * math.pi / (K * T)
    chosen = float(design_rule_alpha_star(K, T)[0])
    slopes = {"naive": naive, "chosen": chosen}
    dv = np.arange(-60.0, 61.0, 1.0)

    print("phase-difference drift only, worst case over lane offsets +-4 m")
    print(f"d_x = 30 m, separation 10 lambda:")
    res30 = speed_sweep("omega", slopes, dv, base, d_y_values=(-4.0, 4.0))
    report(res30, slopes)

    print("\nsame sweep from 100 m out (drift is tiny, paths coincide):")
    far = ScenarioParams(d_x=100.0, d_y=-4.0, delta_v=0.0, delta_a=10.0 * lam,
                         wavelength=lam, n_packets=K, t_interval=T)
    res100 = speed_sweep("omega", slopes, dv, far, d_y_values=(-4.0, 4.0))
    report(res100, slopes)
    gap = float(np.max(np.abs(res100.series["chosen_exact_db"]
                              - res100.series["chosen_affine_db"])))
    print(f"  exact-vs-affine gap for the chosen slope: {gap:.4f} dB")

    print("\npath gain drifting too (towards the receiver at up to 60 km/h):")
    pl = pl_slope_losses(K, model=PathlossModel(), d_x=30.0, dv_kmh=-60.0)
    uni = pl.series["floor_universal_db"]
    scen = pl.series["floor_scenario_db"]
    print("  q    universal floor   this geometry")
    for q in range(1, K):
        print(f"  {q}    {uni[q - 1]:10.2f} dB    {scen[q - 1]:8.3f} dB")
    print("  the weight drift alone cannot cost more than half a dB at q=5")

    out = "speed_sweep_omega.csv"
    res30.to_csv(out)
    print(f"\nwrote {out}")
