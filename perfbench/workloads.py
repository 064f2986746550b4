"""The four benchmark workloads: inputs made from a seed, and output checks.

Each workload is one ``symwave`` command and its config.  The command runs
with the benchmark's seed, and ``EvolveQuartic`` also draws its inputs from
it; the seed changes the inputs, not the amount of work.  ``check(results)`` takes the ``results`` payload of one command and returns
how many of the command's ``ops`` operations failed.  Every check compares
against a computation made here, apart from the program, or against a
property the method must have; none compares against stored output.
"""

import cmath
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq


class Shadows:
    """``symwave nonsqueeze``: one operation is one shadow area."""

    command = "nonsqueeze"
    n, radius, maps = 2, 1.0, 1

    def __init__(self, seed):
        # every map has five stages (two shears), the middle of the default
        # 3..7, so that the work of a round does not depend on the seed
        self.config = {"n": self.n, "R": self.radius, "maps": self.maps,
                       "grid_res": 512, "samples": 1_000_000,
                       "stages": [5, 5], "calibration": True}
        self.ops = self.n * (self.maps + 1)

    def check(self, results):
        reference = math.pi * self.radius ** 2
        planes = [f"x{j + 1}p{j + 1}" for j in range(self.n)]
        calib = {row["plane"]: row["corrected_area"] for row in results["calibration"]}
        good = sum(abs(calib.get(p, math.inf) - reference) <= 0.01 * reference
                   for p in planes)
        areas = {(rec["map"], pl["plane"]): pl["corrected_area"]
                 for rec in results["experiment"]["maps"] for pl in rec["planes"]}
        # non-squeezing: no conjugate shadow drops below pi R^2 (5% margin)
        good += sum(areas.get((k, p), -math.inf) >= 0.95 * reference
                    for k in range(self.maps) for p in planes)
        return self.ops - good


class IndexIdentities:
    """``symwave index`` task ``identities``: one operation is one Leray or
    inertia evaluation, six per triple (five ``leray_index`` and one ``inert``)."""

    command = "index"
    dims, trials = (1, 2, 3), 150

    def __init__(self, seed):
        self.config = {"task": "identities", "dims": list(self.dims),
                       "trials": self.trials}
        self.ops = 6 * self.trials * len(self.dims)

    def check(self, results):
        rows = {row["n"]: row for row in results["rows"]}
        failed = 0
        for n in self.dims:
            row = rows.get(n)
            if row is None or row["trials"] != self.trials:
                failed += 6 * self.trials
                continue
            # a cocycle failure involves three leray_index calls and inert
            bad = (4 * row["cocycle_failures"] + row["self_index_failures"]
                   + row["deck_shift_failures"])
            failed += min(bad, 6 * self.trials)
        return failed


class IndexGrid:
    """``symwave index`` task ``grid``: one operation is one pair of the grid."""

    command = "index"
    count, lo, hi = 150, -6.0, 6.0

    def __init__(self, seed):
        self.config = {"task": "grid", "theta_count": self.count,
                       "theta_min": self.lo, "theta_max": self.hi}
        self.ops = self.count ** 2

    def check(self, results):
        thetas = np.linspace(self.lo, self.hi, self.count)
        rows = results["rows"]
        good = 0
        for k, row in enumerate(rows[: self.ops]):
            th, tp = row["theta"], row["theta_prime"]
            if abs(th - thetas[k // self.count]) > 1e-12 or abs(tp - thetas[k % self.count]) > 1e-12:
                continue
            # closed form of the two-lift index on the circle of lines; the
            # row's own closed_form and match columns are not read
            good += row["index"] == math.floor((th - tp) / math.pi) + 1
        return self.ops - good


class QuarticReference:
    """Quartic oscillator ``H = p^2/2 + x^2/2 + g x^4`` integrated by
    ``solve_ivp`` with its variational equations and action, at tight tolerance."""

    def __init__(self, coupling):
        self.g = coupling

    def _rhs(self, t, y):
        x, p, j11, j12, j21, j22, _ = y
        k = 1.0 + 12.0 * self.g * x * x
        energy = 0.5 * p * p + 0.5 * x * x + self.g * x ** 4
        return [p, -x - 4.0 * self.g * x ** 3, j21, j22, -k * j11, -k * j12,
                p * p - energy]

    def solve(self, x, p, t_end, dense=False):
        """Dense solution ``(x, p, J11, J12, J21, J22, S)`` over ``[0, t_end]``."""
        sol = solve_ivp(self._rhs, (0.0, t_end), [x, p, 1.0, 0.0, 0.0, 1.0, 0.0],
                        method="DOP853", rtol=1e-12, atol=1e-12, dense_output=dense)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        return sol


def _sign_changes(values):
    s = np.sign(values)
    return int(np.sum(s[1:] * s[:-1] < 0))


class EvolveQuartic:
    """``symwave evolve`` with a quartic oscillator: one operation is one
    checked output value (shadow grid point, Morse window or index-field point)."""

    command = "evolve"
    coupling, hbar, t_end = 0.1, 0.05, 0.7
    grid_points, index_points, half_width = 6, 6, 0.5

    def __init__(self, seed):
        rng = np.random.default_rng([seed, 4])
        c0, c1 = rng.uniform(-0.2, 0.2), rng.uniform(0.1, 0.3)
        c2 = rng.uniform(0.15, 0.35)
        self.phi = (c0, c1, c2)
        self.x0 = rng.uniform(0.4, 0.8)
        self.sigma = rng.uniform(0.4, 0.6)
        self.ref = QuarticReference(self.coupling)

        # grid: the image of the sources [x0 - w, x0 + w] at t_end, which the
        # data reach before their first caustic
        w = self.half_width
        gmin, gmax = (round(float(self._flow_source(x).y[0, -1]), 6)
                      for x in (self.x0 - w, self.x0 + w))
        self.xs = np.linspace(gmin, gmax, self.grid_points)
        self.thetas = np.linspace(gmin, gmax, self.index_points)

        # Morse windows spanning 0, 1 and 2 focal points of the trajectory
        # through x0; each window ends midway between two focal points
        p0 = self._dphi(self.x0)
        sol = self.ref.solve(self.x0, p0, 12.0, dense=True)
        ts = np.linspace(1e-6, 12.0, 120_001)
        j12 = sol.sol(ts)[3]
        flips = ts[1:][np.sign(j12[1:]) != np.sign(j12[:-1])]
        t1, t2, t3 = flips[:3]
        self.windows = [[0.0, round(0.6 * t1, 3)],
                        [0.0, round(0.5 * (t1 + t2), 3)],
                        [0.0, round(0.5 * (t2 + t3), 3)]]
        self.config = {
            "hamiltonian": {"kind": "quartic", "omegas": [1.0],
                            "coupling": self.coupling},
            "state": {"phi": list(self.phi), "amplitude": "gaussian",
                      "sigma": self.sigma, "x0": self.x0},
            "hbar": self.hbar, "t_end": self.t_end,
            "x_grid": {"min": gmin, "max": gmax, "count": self.grid_points},
            "morse_windows": self.windows,
            "index_points": self.index_points,
        }
        self.ops = self.grid_points + len(self.windows) + self.index_points
        self._expect()

    def _dphi(self, x):
        return self.phi[1] + 2.0 * self.phi[2] * x

    def _flow_source(self, xp, dense=False):
        return self.ref.solve(xp, self._dphi(xp), self.t_end, dense=dense)

    def _expect(self):
        """Reference values for every checked output."""
        c0, c1, c2 = self.phi
        end = self._flow_source(self.x0).y[:, -1]
        self.endpoint = (end[0], end[1])
        self.action = end[6]

        lo, hi = self.x0 - 1.2 * self.half_width, self.x0 + 1.2 * self.half_width
        self.shadow = []
        for x in self.xs:
            # independent source-point solve: the unique x' on the initial
            # graph whose flow line reaches x at t_end
            xp = brentq(lambda s: self._flow_source(s).y[0, -1] - x, lo, hi,
                        xtol=1e-14, rtol=1e-15)
            y = self._flow_source(xp).y[:, -1]
            jac = y[2] + y[3] * 2.0 * c2  # dx/dx' = A + B phi''
            amp = math.exp(-((xp - self.x0) ** 2) / (2.0 * self.sigma ** 2))
            phase = (c0 + c1 * xp + c2 * xp * xp + y[6]) / self.hbar
            self.shadow.append(amp * abs(jac) ** -0.5 * complex(math.cos(phase), math.sin(phase)))

        # index at t_end: the number of focal points (zeros of dx/dx') each
        # source passes; the initial graph carries index 0 everywhere
        ts = np.linspace(0.0, self.t_end, 2001)
        self.index_end = []
        for th in self.thetas:
            path = self._flow_source(th, dense=True).sol(ts)
            self.index_end.append(_sign_changes(path[2] + path[3] * 2.0 * c2))

        p0 = self._dphi(self.x0)
        self.morse = []
        for _, b in self.windows:
            sol = self.ref.solve(self.x0, p0, b, dense=True)
            self.morse.append(_sign_changes(sol.sol(np.linspace(1e-6, b, 40_001))[3]))

    def check(self, results):
        traj = results["trajectory"]
        last = traj["samples"][-1]
        if not (abs(last["t"] - self.t_end) <= 1e-12
                and abs(last["x"] - self.endpoint[0]) <= 1e-8
                and abs(last["p"] - self.endpoint[1]) <= 1e-8
                and abs(last["action"] - self.action) <= 1e-5
                and abs(traj["action"] - self.action) <= 1e-5):
            return self.ops  # a wrong trajectory leaves no output trustworthy

        good = 0
        shadow = results["shadow"]
        for x, v, x_want, want in zip(shadow["x"], shadow["values"], self.xs, self.shadow):
            got = complex(v["re"], v["im"])
            good += (abs(x - x_want) <= 1e-12
                     and abs(abs(got) - abs(want)) <= 1e-6 * abs(want)
                     and abs(cmath.phase(got / want)) <= 1e-3)
        for row, want, (a, b) in zip(results["morse"], self.morse, self.windows):
            good += (row["t_start"], row["t_end"], row["count"]) == (a, b, want)
        for row, th, want in zip(results["index_field"], self.thetas, self.index_end):
            good += (abs(row["theta"] - th) <= 1e-12 and row["index_start"] == 0
                     and row["index_end"] == want)
        return self.ops - good

WORKLOADS = {
    "shadows": Shadows,
    "index-identities": IndexIdentities,
    "index-grid": IndexGrid,
    "evolve-quartic": EvolveQuartic,
}
