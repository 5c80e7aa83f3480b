"""Correctness checks on the outputs of the benchmark's workloads.

Each check compares an output with the paper's published figures or with a
property the method must have; none compares with a stored copy of an
earlier run.  A check returns ``(ok, message)``.  ``self_test`` plants an
input that violates each check and confirms that the check rejects it;
``run.py`` calls it before every run, and ``python3 perfbench/checks.py``
runs it alone.
"""

from __future__ import annotations

import numpy as np

# The paper's layer-error table: max |Ez| error over x <= 2 at t = 5, by
# (order, h).  A cell passes within a factor 3 either way, and the rate at
# h = 0.02 must be at least 4, as in tests/test_acceptance.py.
WAVEGUIDE_TARGETS = {
    (4, 0.04): 1.64e-3,
    (4, 0.02): 5.03e-6,
    (6, 0.04): 1.08e-3,
    (6, 0.02): 6.22e-6,
}
TABLE_BAND = 3.0
MIN_RATE = 4.0

# Spectra: stable operators keep max Re(lambda) <= STABLE_MAX_RE (rounding
# of a 676-unknown eigen-solve); the theta = 0 operator at orders 4 and 6
# has an eigenvalue with Re(lambda) > UNSTABLE_MIN_RE.
STABLE_MAX_RE = 1e-8
UNSTABLE_MIN_RE = 1e-6
PLANTED_ROOT_TOL = 1e-8


def tenfold_growth(times, ez_norm, t_end: float):
    """theta = 0: ez_norm reaches 10x its running minimum before t_end.

    A sample that overflowed to inf counts as growth; NaN samples do not.
    """
    times = np.asarray(times, dtype=float)
    ez = np.asarray(ez_norm, dtype=float)
    hits = np.nonzero(ez >= 10.0 * np.minimum.accumulate(ez))[0]
    if hits.size and times[hits[0]] < t_end:
        return True, f"tenfold growth at t = {times[hits[0]]:g}"
    return False, f"no tenfold growth of ez_norm before t = {t_end:g}"


def decays(times, ez_norm, diverged: bool, t_ref: float = 100.0):
    """theta = 1: no divergence, no tenfold growth, and ez_norm at the end below its t_ref value.

    ez_norm alone is not an energy and need not fall monotonically: on the
    desk cavity it rises 1.9% above its t = 100 value at t = 112.  The
    bounded quantity is the modal energy, checked by ``growth_bound``.
    """
    if diverged:
        return False, "the run diverged"
    times = np.asarray(times, dtype=float)
    ez = np.asarray(ez_norm, dtype=float)
    if not np.all(np.isfinite(ez)):
        return False, "ez_norm is not finite"
    grew, msg = tenfold_growth(times, ez, np.inf)
    if grew:
        return False, msg
    idx = int(np.argmin(np.abs(times - t_ref)))
    if abs(times[idx] - t_ref) > 1e-9:
        return False, f"no sample at t = {t_ref:g}"
    ok = ez[-1] < ez[idx]
    return ok, f"ez_norm {ez[idx]:.4e} at t = {t_ref:g}, {ez[-1]:.4e} at t = {times[-1]:g}"


def growth_bound(times, energy, sigma_max: float):
    """sqrt(E) grows by at most exp(sigma_max dt) between samples (the paper's estimate)."""
    from sbpml.diagnostics import growth_bound_check

    energy = np.asarray(energy, dtype=float)
    if not np.all(np.isfinite(energy)):
        return False, "the energy history is not finite"
    rep = growth_bound_check(times, energy, sigma_max)
    return rep.ok, f"max ratio {rep.max_ratio:.6g} at sample {rep.worst_index}"


def table_cell(order: int, h: float, err: float):
    target = WAVEGUIDE_TARGETS[(order, h)]
    lo, hi = target / TABLE_BAND, target * TABLE_BAND
    ok = lo <= err <= hi
    return ok, f"order {order}, h {h:g}: error {err:.4e} {'in' if ok else 'outside'} [{lo:.4e}, {hi:.4e}]"


def table_rate(order: int, rate: float):
    ok = rate >= MIN_RATE
    return ok, f"order {order}, h 0.02: rate {rate:.3f} {'>=' if ok else '<'} {MIN_RATE:g}"


def spectrum_stable(max_re: float):
    return max_re <= STABLE_MAX_RE, f"max Re lambda = {max_re:.3e}, bound {STABLE_MAX_RE:g}"


def spectrum_unstable(max_re: float):
    return max_re > UNSTABLE_MIN_RE, f"max Re lambda = {max_re:.3e}, needs > {UNSTABLE_MIN_RE:g}"


def no_roots(roots):
    return not roots, f"{len(roots)} root(s) found: {roots}"


def planted_roots(roots, targets):
    """The control scan returns exactly the planted roots, each to PLANTED_ROOT_TOL."""
    if len(roots) != len(targets):
        return False, f"found {len(roots)} root(s) for {len(targets)} planted: {roots}"
    miss = max(min(abs(r - t) for r in roots) for t in targets)
    return miss <= PLANTED_ROOT_TOL, f"worst planted-root distance {miss:.3e}"


def self_test() -> list:
    """Plant a violation of each check; return the checks that failed to reject it."""
    times = np.arange(0.0, 2000.0 + 1e-9, 4.0)
    decaying = 1.0 + np.exp(-times / 50.0)
    growing = np.exp(times / 300.0)
    energy_growing = np.exp(times / 100.0)
    planted = [0.5 + 7.0j, 2.0 - 13.0j]
    accept = {
        "tenfold_growth on a growing history": tenfold_growth(times, growing, 2000.0),
        "decays on a decaying history": decays(times, decaying, False),
        "growth_bound on a decaying energy": growth_bound(times, decaying**2, 0.0),
        "table_cell at its target": table_cell(6, 0.02, 6.22e-6),
        "table_rate of 5": table_rate(4, 5.0),
        "spectrum_stable at -1e-3": spectrum_stable(-1e-3),
        "spectrum_unstable at 1e-3": spectrum_unstable(1e-3),
        "no_roots on []": no_roots([]),
        "planted_roots on the exact roots": planted_roots(planted, planted),
    }
    reject = {
        "tenfold_growth on a decaying history": tenfold_growth(times, decaying, 2000.0),
        "decays on a growing theta = 1 history": decays(times, growing, False),
        "decays on a history that ends above its t = 100 value": decays(times, 2.0 - np.exp(-times / 50.0), False),
        "decays on a diverged run": decays(times, decaying, True),
        "decays on a NaN sample": decays(times, np.where(times > 500, np.nan, decaying), False),
        "growth_bound on a growing energy": growth_bound(times, energy_growing, 1e-3),
        "growth_bound on a NaN energy": growth_bound(times, np.where(times > 500, np.nan, decaying), 1e-3),
        "table_cell 3.1x above its target": table_cell(6, 0.02, 3.1 * 6.22e-6),
        "table_cell 3.1x below its target": table_cell(4, 0.04, 1.64e-3 / 3.1),
        "table_rate of 3.9": table_rate(6, 3.9),
        "spectrum_stable on a positive eigenvalue": spectrum_stable(1e-6),
        "spectrum_unstable at 1e-9": spectrum_unstable(1e-9),
        "no_roots on one root": no_roots([1.0 + 1.0j]),
        "planted_roots when the scan misses one": planted_roots(planted[:1], planted),
        "planted_roots when a root is off by 1e-6": planted_roots([planted[0], planted[1] + 1e-6], planted),
        "planted_roots with an extra root": planted_roots(planted + [1.0 + 0.0j], planted),
    }
    wrong = [k for k, (ok, _) in accept.items() if not ok]
    wrong += [k for k, (ok, _) in reject.items() if ok]
    return wrong


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    bad = self_test()
    for name in bad:
        print("check did not behave:", name)
    print("self-test:", "PASS" if not bad else f"{len(bad)} failure(s)")
    sys.exit(1 if bad else 0)
