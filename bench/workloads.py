"""The benchmark's three workloads: inputs from a seed, one unit of work, its gates.

A unit is one run of the workload as defined below; it is split into
chunks timed by a ``probe.ChunkTimer`` so a run can report the median
rate over many chunks. ``build`` is the set-up that ``setup_s`` times;
``run.py`` also times it in fresh interpreters. ``probe_kernel`` names
the ``probe.KERNELS`` entry whose work resembles the workload's hot path.
"""

import csv
import hashlib
import math
import os
import traceback
from dataclasses import dataclass, replace

import numpy as np

# Package functions are called through their modules, never bound here by
# name, so the tracer's rebinding inside simdoa also covers these calls.
from simdoa import cli, experiments, geometry, trainer, wavemodel
from simdoa.estimator import ProtocolConfig
from simdoa.geometry import SimGeometry
from simdoa.trainer import TrainConfig

LAM = 0.005
FIT_TARGET_DB = -15.0


def child_seed(seed, *key):
    """A 32-bit integer derived from the workload seed and a spawn key."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


@dataclass
class Unit:
    """Outcome of one unit: failures and the outputs pinned on the default seed."""

    attempted: int
    failed: int
    outputs: dict
    notes: list


def _report_exception(notes, what):
    notes.append(f"{what}: {traceback.format_exc(limit=3).strip().splitlines()[-1]}")
    traceback.print_exc()


# --- fit-4x4 ---------------------------------------------------------------

@dataclass(frozen=True)
class FitParams:
    n_side: int = 4
    m_side: int = 15
    spacing_lam: float = 4.0 / 9.0
    layers: int = 13
    thickness_lam: float = 12.0
    iterations: int = 200
    seeds: int = 4


class FitWorkload:
    # the time goes to multi-threaded BLAS, whose speed the interpreter
    # kernel does not track
    probe_kernel = "gemm"
    name = "fit-4x4"
    why = ("training only: trainer gradient and wavemodel cascade GEMMs on 225x225 "
           "matrices; estimator and analysis idle")
    op = "one training iteration"

    def __init__(self, params=FitParams()):
        self.p = params

    def tiny(self):
        return FitWorkload(FitParams(n_side=2, m_side=3, spacing_lam=0.5, layers=2,
                                     thickness_lam=6.0, iterations=2, seeds=2))

    def build(self, seed, workdir):
        p = self.p
        geom = SimGeometry(
            wavelength=LAM, n_x=p.n_side, n_y=p.n_side, d_x=LAM / 2, d_y=LAM / 2,
            m_x=p.m_side, m_y=p.m_side, s_x=p.spacing_lam * LAM,
            s_y=p.spacing_lam * LAM, layers=p.layers, thickness=p.thickness_lam * LAM)
        return {"props": geometry.build_propagation_matrices(geom),
                "f": geometry.dft_matrix(p.n_side, p.n_side).matrix, "seed": seed}

    def setup_gate(self, seed):
        """Claim 1 on one small random stack: analytic vs central-difference gradient."""
        geom = SimGeometry(wavelength=LAM, n_x=2, n_y=2, d_x=LAM / 2, d_y=LAM / 2,
                           m_x=3, m_y=3, s_x=LAM / 2, s_y=LAM / 2, layers=2,
                           thickness=6 * LAM)
        props = geometry.build_propagation_matrices(geom)
        rng = np.random.default_rng(child_seed(seed, 1 << 20))
        stack = wavemodel.random_stack(geom.layers, geom.m, rng)
        f = geometry.dft_matrix(2, 2).matrix
        # off-optimum scale keeps the residual away from zero
        g = wavemodel.forward_response(props, stack)
        beta = wavemodel.optimal_scale(g, f) * (1.1 + 0.3j)
        worst = 0.0
        for ga, gf in zip(trainer.gradient(props, stack, f, beta),
                          trainer.finite_diff_gradient(props, stack, f, beta)):
            scale = max(float(np.max(np.abs(gf))), 1e-300)
            worst = max(worst, float(np.max(np.abs(ga - gf))) / scale)
        ok = worst <= 1e-6
        return ok, f"gradient vs finite differences: max relative error {worst:.3e}"

    def seeds_for(self, seed, rep):
        base = child_seed(seed, rep)
        return [base + i for i in range(self.p.seeds)]

    def run_unit(self, inputs, rep, workdir, timer):
        """``train_restarts`` once per seed, so each seed's 200 iterations form a chunk.

        Restart i of ``train_restarts`` uses seed ``base + i``, so the four
        calls equal one ``train_restarts`` call with four restarts.
        """
        p = self.p
        notes, best = [], {}
        failed = 0
        for s in self.seeds_for(inputs["seed"], rep):
            cfg = TrainConfig(eta0=0.1, zeta=0.95, max_iters=p.iterations, seed=s,
                              restarts=1)
            token = timer.start()
            try:
                report = trainer.train_restarts(inputs["props"], inputs["f"], cfg)[0]
            except Exception:
                _report_exception(notes, f"train seed {s}")
                failed += p.iterations
                continue
            timer.stop(token, report.iterations)
            best[s] = float(report.best_db)
        attempted = p.iterations * p.seeds
        # claim 3: the best of the seeds reaches FIT_TARGET_DB, else the unit fails
        if not best or min(best.values()) > FIT_TARGET_DB:
            notes.append(f"best dB {min(best.values(), default=None)} above {FIT_TARGET_DB}")
            failed = attempted
        return Unit(attempted, failed,
                    {"best_db": [best.get(s) for s in self.seeds_for(inputs["seed"], rep)]},
                    notes)

    @staticmethod
    def matches_reference(outputs, ref):
        """Per-seed best dB within 1e-6 dB of the recorded values."""
        got, want = outputs["best_db"], ref["best_db"]
        return len(got) == len(want) and all(
            g is not None and abs(g - w) <= 1e-6 for g, w in zip(got, want))


# --- mc-bound-4x4 ----------------------------------------------------------

MC_CONFIG = """\
geometry:
  n_x: {n}
  n_y: {n}
protocol:
  t_x: {t}
  t_y: {t}
montecarlo:
  trials: {trials}
  snr_db: {snr}
  seed: {seed}
  with_bound: true
  ideal: true
"""


@dataclass(frozen=True)
class McParams:
    n_side: int = 4
    t_side: int = 8
    snr_db: tuple = (0, 10, 20, 30)
    trials: int = 250


class McWorkload:
    probe_kernel = "interpreter"
    name = "mc-bound-4x4"
    why = ("Monte Carlo through the CLI: per-cell Python loops in estimator "
           "snapshots and the analysis bound; trainer idle")
    op = "one Monte Carlo trial"

    def __init__(self, params=McParams()):
        self.p = params

    def tiny(self):
        return McWorkload(McParams(n_side=2, t_side=2, snr_db=(10,), trials=2))

    def _config(self, seed, rep, workdir):
        p = self.p
        path = os.path.join(workdir, f"montecarlo-{rep}.yaml")
        with open(path, "w") as fh:
            fh.write(MC_CONFIG.format(n=p.n_side, t=p.t_side, trials=p.trials,
                                      snr=list(p.snr_db), seed=child_seed(seed, rep)))
        return path

    def build(self, seed, workdir):
        return {"seed": seed, "config": self._config(seed, 0, workdir)}

    def setup_gate(self, seed):
        return True, "none"

    def run_unit(self, inputs, rep, workdir, timer):
        """One ``simdoa montecarlo`` run, in-process, single job."""
        p = self.p
        config = inputs["config"] if rep == 0 else self._config(inputs["seed"], rep, workdir)
        outdir = os.path.join(workdir, "montecarlo-out")
        csv_path = os.path.join(outdir, "montecarlo.csv")
        if os.path.exists(csv_path):
            os.remove(csv_path)
        ops = p.trials * len(p.snr_db)
        notes = []
        token = timer.start()
        try:
            code = cli.main(["montecarlo", "-c", config, "-o", outdir, "-j", "1"])
        except Exception:
            _report_exception(notes, "montecarlo")
            return Unit(ops, ops, {"rows": []}, notes)
        timer.stop(token, ops)
        if code != 0 or not os.path.exists(csv_path):
            notes.append(f"montecarlo exit code {code}")
            return Unit(ops, ops, {"rows": []}, notes)
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        failed = 0
        for row in rows:
            mse, bound, se = float(row["mse"]), float(row["bound"]), float(row["se"])
            # claim 6: the empirical MSE stays under the bound within three se
            if not (math.isfinite(bound) and mse <= bound + 3.0 * se):
                failed += int(row["trials"])
                notes.append(f"snr {row['effective_snr_db']}: mse {mse} > bound {bound} + 3 se")
        if len(rows) != len(p.snr_db) or any(int(r["trials"]) != p.trials for r in rows):
            notes.append("montecarlo.csv does not have one full row per SNR point")
            failed = ops
        return Unit(ops, failed, {"rows": rows}, notes)

    @staticmethod
    def matches_reference(outputs, ref):
        """Every numeric montecarlo.csv field within 1e-9 relative of the recorded one."""
        got, want = outputs["rows"], ref["rows"]
        if len(got) != len(want):
            return False
        for g, w in zip(got, want):
            if g.keys() != w.keys():
                return False
            for key in w:
                if key == "low_trials":
                    if g[key] != w[key]:
                        return False
                elif not math.isclose(float(g[key]), float(w[key]), rel_tol=1e-9,
                                      abs_tol=1e-15):
                    return False
        return True


# --- paired-2x2 ------------------------------------------------------------

@dataclass(frozen=True)
class PairedParams:
    n_side: int = 2
    t_side: int = 4
    snr_db: float = 20.0
    pairs: int = 5000
    chunk: int = 250


class PairedWorkload:
    probe_kernel = "interpreter"
    name = "paired-2x2"
    why = ("paired wave vs digital trials on 2x2 inputs: per-call overhead of the "
           "estimator and digital baseline; analysis and trainer idle")
    op = "one wave + digital pair"

    def __init__(self, params=PairedParams()):
        self.p = params

    def tiny(self):
        return PairedWorkload(replace(self.p, pairs=3, chunk=3))

    def build(self, seed, workdir):
        p = self.p
        return {"f": geometry.dft_matrix(p.n_side, p.n_side).matrix,
                "proto": ProtocolConfig(t_x=p.t_side, t_y=p.t_side),
                "gamma": 10.0 ** (p.snr_db / 10.0),
                # one generator for every pair of the run (claim 5's set-up)
                "rng": np.random.default_rng(seed)}

    def setup_gate(self, seed):
        return True, "none"

    def run_unit(self, inputs, rep, workdir, timer):
        """``pairs`` shared-noise pairs with the exact DFT; both paths must agree."""
        p = self.p
        f, proto, gamma, rng = inputs["f"], inputs["proto"], inputs["gamma"], inputs["rng"]
        notes = []
        failed = 0
        digest = hashlib.sha256()
        for start in range(0, p.pairs, p.chunk):
            count = min(p.chunk, p.pairs - start)
            token = timer.start()
            for index in range(start, start + count):
                try:
                    src = experiments.sample_source(rng)
                    wave, digital = experiments.paired_trial(f, 1.0, src, proto, p.n_side,
                                                             p.n_side, gamma, rng)
                except Exception:
                    _report_exception(notes, "paired_trial")
                    failed += 1
                    continue
                # claim 5: with the exact DFT both paths pick the same cell
                if (wave.n, wave.t) != (digital.n, digital.t):
                    failed += 1
                    notes.append(f"pair {index}: wave {(wave.n, wave.t)} vs "
                                 f"digital {(digital.n, digital.t)}")
                digest.update(f"{wave.n},{wave.t};".encode())
            timer.stop(token, count)
        return Unit(p.pairs, failed, {"wave_cells_sha256": digest.hexdigest()},
                    notes)

    @staticmethod
    def matches_reference(outputs, ref):
        return outputs == ref


WORKLOADS = {w.name: w for w in (FitWorkload(), McWorkload(), PairedWorkload())}
