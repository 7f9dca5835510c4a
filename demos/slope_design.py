"""Pick the branch phase slope that survives channel drift.

Any slope difference of q * 2 pi / (K T) zeroes the combining loss for a
perfectly static channel.  Real channels drift, which shifts the effective
slope difference; the comb members differ a lot in how much shift they
tolerate before falling into a total-loss pole.  This script scores every
member under a +-(pi/2)/T drift of the half-angle and shows why the middle
of the comb wins.

Run:  python3 demos/slope_design.py
"""

import math

import numpy as np

from phasecomb import (check_optimality, design_rule_alpha_star, loss,
                       optimal_slope_set)

K, T = 10, 0.1


def worst_loss_under_drift(slope: float, n_packets: int, t: float) -> float:
    a = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, 1601)
    x = 0.5 * slope * t - a
    poles = [q * math.pi for q in (-1, 0, 1, 2)
             if abs(0.5 * slope * t - q * math.pi) <= math.pi / 2 - 0.01]
    if poles:
        x = np.concatenate([x, poles])
    return float(np.max(loss(x, 1.0, 0.0, n_packets)))


if __name__ == "__main__":
    slopes = optimal_slope_set(K, T)
    print(f"zero-loss slope comb for K={K}, T={T} s:")
    print("  " + ", ".join(f"q={q}: {s:.4g} rad/s"
                           for q, s in enumerate(slopes, start=1)))

    print("\nworst-case loss when the half slope-offset drifts by up to pi/2:")
    scores = {}
    for q, s in enumerate(slopes, start=1):
        scores[q] = worst_loss_under_drift(float(s), K, T)
        bar = "#" * int(round(40 * scores[q]))
        print(f"  q={q}: {scores[q]:.4f}  {bar}")

    chosen = design_rule_alpha_star(K, T)
    print(f"\ndesign rule picks q = {[round(s / slopes[0]) for s in chosen]}"
          f" -> slope {chosen[0]:.6g} rad/s")
    print("that member sits farthest from both poles: the drift has to move")
    print("the half-angle a full pi/2 before the burst can be nulled")

    # an odd packet count has no exact middle, so the rule returns both
    # straddling members
    for n in (5, 9):
        picks = design_rule_alpha_star(n, T)
        base = 2.0 * math.pi / (n * T)
        print(f"\nK={n}: design rule returns q = "
              f"{[round(float(s) / base) for s in picks]}")

    ok = check_optimality([0.0, float(chosen[0])], K, T)
    print(f"\npairwise zero-loss condition for (0, alpha*): "
          f"{'satisfied' if ok else 'violated'}")
