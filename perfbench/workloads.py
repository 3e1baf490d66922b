"""The three benchmark workloads, run through the public library API.

Each workload follows the steps of the matching CLI subcommands.  Library
functions are looked up on their modules at call time (`spectral.count`,
not a name imported once), so the traced run sees every call.

A workload splits into `setup()`, which ends with a query-ready pencil
(reduction, assembly and the first shift scan), and `solve(state)`, the
rest of the route, which returns its outputs as plain, comparable values.
`check(state, out)` runs outside the timed region: it returns the
implied relative error of each query against the oracle (None where the
oracle cannot decide cheaply) and the workload's named checks.
"""

from __future__ import annotations

import io
import math

import numpy as np

import oracles
from fractalsturm import assembly, reduction, selfsim, spectral
from fractalsturm.assembly import BoundaryCondition
from fractalsturm.measures import CompositeMeasure, StepFunction
from fractalsturm.selfsim import MonotonePrimitive, SelfSimilarParams

NEUMANN = BoundaryCondition.neumann()


class Asymptotics:
    """`fractalsturm asymptotics --depth 15 --grid 1e3:1e7:25 --out FILE`.

    The problem file has r = the identity primitive on 3 cells, p = the
    Cantor ladder and Neumann conditions, so the CLI takes the pair route.
    """

    name = "asymptotics"
    depth = 15
    grid = np.geomspace(1e3, 1e7, 25)
    queries = len(grid)
    checked_counts = 64  # ARPACK oracle size; larger counts stay unchecked

    def __init__(self, seed: int, out_dir):
        self.csv_path = out_dir / "asymptotics.csv"
        self.r = MonotonePrimitive.identity(3)
        self.p = selfsim.cantor_ladder()

    def setup(self):
        d, dprime = tuple(self.r.params.dprime), tuple(self.p.dprime)
        selfsim.validate_contraction(self.r, self.p)
        disc = assembly.assemble_selfsimilar_pair(self.r, self.p, NEUMANN, self.depth)
        xi = spectral.resolve_shift(disc)
        return disc, xi, d, dprime

    def solve(self, state):
        disc, xi, d, dprime = state
        rep = spectral.asymptotics_report(disc, d, dprime, self.grid, xi)
        buf = io.StringIO()
        rows = spectral.counting_function(disc, self.grid, xi)
        spectral.write_counting_csv(buf, rows, rep.dimension)
        with open(self.csv_path, "w") as fh:
            fh.write(buf.getvalue())
        return {
            "dimension": rep.dimension,
            "ratio_band": list(rep.ratio_band),
            "periodicity_defect": rep.periodicity_defect,
            "counts": [int(n) for n in rep.n_plus],
            "csv_counts": [r.n_plus for r in rows],
        }

    def check(self, state, out):
        disc = state[0]
        mus = oracles.lowest_eigenvalues(disc, self.checked_counts + 2)
        errors = [
            oracles.count_error(float(lam), n, mus) if n <= self.checked_counts else None
            for lam, n in zip(self.grid, out["counts"])
        ]
        lo, hi = out["ratio_band"]
        defect = out["periodicity_defect"]
        return errors, {
            "dimension is ln2/ln6": abs(out["dimension"] - LN2_OVER_LN6) <= 1e-9,
            "ratio band positive and narrower than 3x": lo > 0.0 and hi / lo < 3.0,
            "ln6-period defect below 15% of the band": defect is not None and defect < 0.15 * (hi - lo),
            "csv counts match the report": out["csv_counts"] == out["counts"],
        }


class Counterexample:
    """`fractalsturm counterexample --k-iter 6 --depth 9`, then
    `fractalsturm spectrum --k-iter 6 --depth 9 --n-eigs 20` on the same
    iterated Cantor string (r = Cantor primitive, p = Cantor ladder).

    The splitting checks build their own pencils inside the library, so
    `setup()` is the spectrum step's pencil alone.
    """

    name = "counterexample"
    k_iter = 6
    depth = 9
    lambdas = (510.0, 85.0, 0.0)
    n_eigs = 20
    queries = 4 * len(lambdas) + n_eigs

    def __init__(self, seed: int, out_dir):
        self.r = MonotonePrimitive.cantor()
        self.p = self.r.params

    def setup(self):
        disc = assembly.assemble_iterated_pair(self.r, self.k_iter, self.p, NEUMANN, self.depth)
        return disc, spectral.resolve_shift(disc)

    def solve(self, state):
        checks = [
            spectral.splitting_inequality(self.r, self.p, self.k_iter, lam, self.depth)
            for lam in self.lambdas
        ]
        disc, xi = state
        eigs = spectral.eigenvalues(disc, self.n_eigs, 1, xi, rtol=1e-10)
        return {
            "checks": [
                {"lambda": c.lam, "lhs": c.lhs, "rhs_terms": list(c.rhs_terms), "holds": c.holds}
                for c in checks
            ],
            "eigenvalues": [float(e) for e in eigs],
        }

    def check(self, state, out):
        disc = state[0]
        mus = oracles.eigenvalues_beyond(disc, max(self.lambdas), self.n_eigs + 2)
        d = [a if dp != 0.0 else 0.0 for a, dp in zip(self.r.params.a, self.r.params.dprime)]
        errors = []
        for c in out["checks"]:
            lam = c["lambda"]
            errors.append(oracles.count_error(lam, c["lhs"], mus))
            for i, term in enumerate(c["rhs_terms"]):
                errors.append(oracles.count_error(d[i] * self.p.dprime[i] * lam, term, mus))
        errors += [
            oracles.eigenvalue_error(e, float(m)) for e, m in zip(out["eigenvalues"], mus)
        ]
        lhs = {c["lambda"]: c for c in out["checks"]}
        return errors, {
            "N(510) = 8 > 3+1+3": lhs[510.0]["lhs"] == 8 and lhs[510.0]["rhs_terms"] == [3, 1, 3]
            and not lhs[510.0]["holds"],
            "N(85) = 3": lhs[85.0]["lhs"] == 3,
            "N(0) = 1": lhs[0.0]["lhs"] == 1,
        }


class General:
    """Three seeded general-route problems per iteration.

    r is the Cantor primitive; p is a 16-step density, 24 atoms and a
    compatible self-similar part (cells of width 1/3, no mass on the
    middle cell); q is 6 atoms of positive weight; Neumann conditions.
    Each goes through `transform_measure` and the general `assemble` at
    depth 14, `resolve_shift`, and `count` at three lambdas.  The CLI
    `transform` subcommand is bypassed on purpose: it drops the atoms and
    density of a composite p whose self-similar part is compatible with r.
    """

    name = "general"
    depth = 14
    lambdas = (1e2, 1e3, 1e4)
    problems = 3
    queries = problems * len(lambdas)

    def __init__(self, seed: int, out_dir):
        rng = np.random.default_rng(seed)
        self.r = MonotonePrimitive.cantor()
        self.inputs = [self._problem(rng) for _ in range(self.problems)]

    @staticmethod
    def _problem(rng):
        breaks = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 15)), [1.0]))
        density = StepFunction(breaks, rng.uniform(0.2, 2.0, 16))
        atoms = tuple(zip(rng.uniform(0.01, 0.99, 24), rng.uniform(0.01, 0.5, 24)))
        w = float(rng.uniform(0.2, 0.8))
        part = SelfSimilarParams(
            a=(1 / 3, 1 / 3, 1 / 3), dprime=(w, 0.0, 1.0 - w), betaprime=(0.0, w, w)
        )
        p = CompositeMeasure(atoms=atoms, density=density, selfsim=(part, float(rng.uniform(0.5, 2.0))))
        q = CompositeMeasure.from_atoms(zip(rng.uniform(0.01, 0.99, 6), rng.uniform(0.5, 5.0, 6)))
        return p, q

    def setup(self):
        state = []
        for p, q in self.inputs:
            p_t = reduction.transform_measure(p, self.r, depth=self.depth)
            q_t = reduction.transform_measure(q, self.r, depth=self.depth)
            disc = assembly.assemble(1.0, q_t, p_t, NEUMANN, self.depth)
            state.append((p_t, q_t, disc, spectral.resolve_shift(disc)))
        return state

    def solve(self, state):
        return {
            "counts": [
                [spectral.count(disc, lam, xi).n_plus for lam in self.lambdas]
                for _, _, disc, xi in state
            ],
        }

    def check(self, state, out):
        errors = []
        checks = {}
        for k, ((p, q), (p_t, q_t, disc, _), counts) in enumerate(
            zip(self.inputs, state, out["counts"])
        ):
            for label, before, after in (("p", p, p_t), ("q", q, q_t)):
                m0, m1 = before.total_mass(), after.total_mass()
                checks[f"problem {k}: {label} mass conserved"] = abs(m1 - m0) <= 1e-9 * abs(m0)
            mus = oracles.eigenvalues_beyond(disc, max(self.lambdas), max(counts) + 3)
            errors += [oracles.count_error(lam, n, mus) for lam, n in zip(self.lambdas, counts)]
        return errors, checks


WORKLOADS = {w.name: w for w in (Asymptotics, Counterexample, General)}

LN2_OVER_LN6 = math.log(2.0) / math.log(6.0)
