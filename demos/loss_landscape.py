"""Walk the worst-case loss landscape of a packet burst.

A burst of K packets, combined over two branches whose phase slopes differ,
loses a fraction L(x) of its summed SNR in the worst case over the unknown
constant phase offset.  The shape of L over the half slope-difference x per
interval is everything: poles of 1/sin(x) are total-loss points, multiples
of pi/K in between are free wins.

Run:  python3 demos/loss_landscape.py  (writes loss_curve_k10.csv here)
"""

import math

import numpy as np

from phasecomb import interval_loss_bound, loss, loss_curve


def describe(n_packets: int) -> None:
    res = loss_curve(n_packets, x_step=1e-3)
    x = res.values
    loss = res.series["loss"]
    print(f"\n-- {n_packets} packets --")
    print(f"tabulated {len(x)} points on (0, pi)")

    # the zero-loss comb: every multiple of pi/K that is not a pole
    zeros = x[loss < 1e-9]
    print(f"zero-loss points found: {len(zeros)}")
    for q in range(1, n_packets):
        target = q * math.pi / n_packets
        nearest = float(np.min(np.abs(zeros - target))) if len(zeros) else math.inf
        mark = "ok" if nearest < 2e-3 else "MISSING"
        print(f"  q={q}: x = {target:.4f} rad  ({mark})")

    # edges of the plot run into the poles at 0 and pi where loss -> 1
    print(f"loss at x = {x[0]:.0e}: {loss[0]:.6f} (pole limit is 1)")
    print(f"loss at x = {x[-1]:.4f}: {loss[-1]:.6f}")

    # staying pi/K clear of the poles caps the loss at the band ceiling
    band = (x >= math.pi / n_packets) & (x <= (n_packets - 1) * math.pi / n_packets)
    ceiling = interval_loss_bound(n_packets)
    print(f"max loss inside the pi/{n_packets}-guarded band: "
          f"{float(np.max(loss[band])):.4f}")
    print(f"band ceiling 1/(K sin(pi/K)) = {ceiling:.4f} "
          f"-> floor {10.0 * math.log10(1.0 - ceiling):.2f} dB")


def drifting_weights_example() -> None:
    # affine per-packet weights (c2 != 0) lift the loss off the zero comb
    n = 10
    x = np.array([q * math.pi / n for q in range(1, n)])
    flat = loss(x, 1.0, 0.0, n)
    drifting = loss(x, 1.0, 1.0 / (n - 1), n)
    print("\n-- weight drift at the zero-loss points (10 packets) --")
    print("q   flat weights   steepest admissible drift")
    for q, f, d in zip(range(1, n), flat, drifting):
        print(f"{q}   {f:12.2e}   {d:.4f}")
    print("drift cannot push any of these above 1/((K-1) sin(q pi/K));")
    print("the middle of the comb stays the safest place to sit")


if __name__ == "__main__":
    describe(5)
    describe(10)
    drifting_weights_example()
    out = "loss_curve_k10.csv"
    loss_curve(10, x_step=1e-3).to_csv(out)
    print(f"\nwrote {out}")
