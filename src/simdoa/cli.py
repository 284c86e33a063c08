"""Command-line front end: config parsing, artifact files, subcommands.

Exit codes: 0 success, 1 runtime or numeric failure, 2 usage or config
failure. All config lengths are in wavelengths; the absolute wavelength
defaults to 5 mm (60 GHz).
"""

import argparse
import csv
import dataclasses
import hashlib
import math
import os
import struct
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np
import yaml

from . import __version__, analysis, experiments
from .estimator import (ProtocolConfig, angular_spectrum, collect_snapshots,
                        estimate_from_map, steering_for)
from .geometry import SimGeometry, build_propagation_matrices, dft_matrix
from .trainer import TrainConfig, finite_diff_gradient, gradient, train_restarts
from .wavemodel import PhaseStack, forward_response, optimal_scale, random_stack


class ConfigError(Exception):
    """Base of the configuration failure family (exit code 2)."""


class ConfigFileError(ConfigError):
    pass


class ConfigSyntaxError(ConfigError):
    pass


class ConfigKeyError(ConfigError):
    pass


class ConfigValueError(ConfigError):
    pass


def _check_keys(section, allowed, path):
    for key in section:
        if key not in allowed:
            raise ConfigKeyError(f"unknown key '{path}.{key}'"
                                 f" (allowed: {', '.join(sorted(allowed))})")


def _get(section, key, kind, path, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigValueError(f"missing required key '{path}.{key}'")
        return default
    value = section[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigValueError(f"'{path}.{key}' must be {kind.__name__},"
                               f" got {type(value).__name__}")
    return value


def _snr_db(value, key):
    """An SNR entry in dB: a number or 'inf' (noise-free); -inf and NaN are refused."""
    if value == "inf":
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not (value == math.inf or math.isfinite(value)):
        raise ConfigValueError(f"'{key}' must be a number or 'inf'")
    return float(value)


def _get_list(section, key, path, required=False, default=None):
    if key not in section:
        if required:
            raise ConfigValueError(f"missing required key '{path}.{key}'")
        return default
    value = section[key]
    if not isinstance(value, list) or not value:
        raise ConfigValueError(f"'{path}.{key}' must be a nonempty list")
    out = []
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigValueError(f"'{path}.{key}[{i}]' must be a number")
        out.append(float(v))
    return out


def _parse_geometry(section):
    allowed = {"n_x", "n_y", "d_x", "d_y", "m_x", "m_y", "s_x", "s_y",
               "layers", "thickness", "u_x", "u_y", "rotation_deg",
               "wavelength_mm"}
    _check_keys(section, allowed, "geometry")
    lam = _get(section, "wavelength_mm", float, "geometry", 5.0) * 1e-3
    # unspecified stack fields fall back to the best known 7-layer design
    kwargs = dict(
        wavelength=lam,
        n_x=_get(section, "n_x", int, "geometry", required=True),
        n_y=_get(section, "n_y", int, "geometry", required=True),
        d_x=_get(section, "d_x", float, "geometry", 0.5) * lam,
        d_y=_get(section, "d_y", float, "geometry", 0.5) * lam,
        m_x=_get(section, "m_x", int, "geometry", 11),
        m_y=_get(section, "m_y", int, "geometry", 11),
        s_x=_get(section, "s_x", float, "geometry", 0.5) * lam,
        s_y=_get(section, "s_y", float, "geometry", 0.5) * lam,
        layers=_get(section, "layers", int, "geometry", 7),
        thickness=_get(section, "thickness", float, "geometry", 9.0) * lam,
        rotation=math.radians(_get(section, "rotation_deg", float, "geometry", 0.0)),
    )
    u_x = _get(section, "u_x", float, "geometry")
    u_y = _get(section, "u_y", float, "geometry")
    if u_x is not None:
        kwargs["u_x"] = u_x * lam
    if u_y is not None:
        kwargs["u_y"] = u_y * lam
    try:
        return SimGeometry(**kwargs)
    except ValueError as exc:
        raise ConfigValueError(f"geometry: {exc}") from exc


def _parse_train(section):
    allowed = {"eta0", "zeta", "max_iters", "rel_tolerance", "seed", "restarts"}
    _check_keys(section, allowed, "train")
    try:
        return TrainConfig(
            eta0=_get(section, "eta0", float, "train", 0.1),
            zeta=_get(section, "zeta", float, "train", 0.8),
            max_iters=_get(section, "max_iters", int, "train", 200),
            rel_tolerance=_get(section, "rel_tolerance", float, "train", 0.0),
            seed=_get(section, "seed", int, "train", 0),
            restarts=_get(section, "restarts", int, "train", 1),
        )
    except ValueError as exc:
        raise ConfigValueError(f"train: {exc}") from exc


def _parse_protocol(section):
    _check_keys(section, {"t_x", "t_y"}, "protocol")
    try:
        return ProtocolConfig(
            t_x=_get(section, "t_x", int, "protocol", 1),
            t_y=_get(section, "t_y", int, "protocol", 1),
        )
    except ValueError as exc:
        raise ConfigValueError(f"protocol: {exc}") from exc


@dataclass(frozen=True)
class CliSource:
    psi_x: float
    psi_y: float
    s: complex


def _parse_source(section):
    allowed = {"psi_x", "psi_y", "phi_deg", "theta_deg", "s_real", "s_imag"}
    _check_keys(section, allowed, "source")
    have_psi = "psi_x" in section or "psi_y" in section
    have_ang = "phi_deg" in section or "theta_deg" in section
    if have_psi and have_ang:
        raise ConfigValueError("source: give psi_x/psi_y or phi_deg/theta_deg,"
                               " not both")
    if have_ang:
        phi = math.radians(_get(section, "phi_deg", float, "source", required=True))
        theta = math.radians(_get(section, "theta_deg", float, "source", required=True))
        if not 0.0 <= theta <= math.pi / 2.0:
            raise ConfigValueError("source: theta_deg must lie in [0, 90]")
        psi_x = math.sin(theta) * math.cos(phi)
        psi_y = math.sin(theta) * math.sin(phi)
    else:
        psi_x = _get(section, "psi_x", float, "source", required=True)
        psi_y = _get(section, "psi_y", float, "source", required=True)
        if not (-1.0 <= psi_x < 1.0 and -1.0 <= psi_y < 1.0):
            raise ConfigValueError("source: psi values must lie in [-1, 1)")
    s = complex(_get(section, "s_real", float, "source", 1.0),
                _get(section, "s_imag", float, "source", 0.0))
    if s == 0:
        raise ConfigValueError("source: symbol must be nonzero")
    return CliSource(psi_x=psi_x, psi_y=psi_y, s=s)


def _parse_run(section, path, defaults):
    """Shared shape for estimate/spectrum run options."""
    allowed = {"snr_db", "seed", "ideal"}
    _check_keys(section, allowed, path)
    snr = section.get("snr_db", defaults.get("snr_db"))
    return {
        "snr_db": None if snr is None else _snr_db(snr, f"{path}.snr_db"),
        "seed": _get(section, "seed", int, path, defaults.get("seed", 0)),
        "ideal": _get(section, "ideal", bool, path, defaults.get("ideal", False)),
    }


def _parse_montecarlo(section):
    allowed = {"trials", "snr_db", "seed", "source_mode", "symbol", "pipeline",
               "with_bound", "ideal"}
    _check_keys(section, allowed, "montecarlo")
    raw = section.get("snr_db")
    if not isinstance(raw, list) or not raw:
        raise ConfigValueError("'montecarlo.snr_db' must be a nonempty list")
    snrs = [_snr_db(v, f"montecarlo.snr_db[{i}]") for i, v in enumerate(raw)]
    mode = _get(section, "source_mode", str, "montecarlo", "parameter")
    if mode not in ("parameter", "solid", "uniform-psi"):
        raise ConfigValueError(f"'montecarlo.source_mode' unknown: {mode}")
    symbol = _get(section, "symbol", str, "montecarlo", "cscg")
    if symbol not in ("cscg", "phase"):
        raise ConfigValueError(f"'montecarlo.symbol' unknown: {symbol}")
    pipeline = _get(section, "pipeline", str, "montecarlo", "wave")
    if pipeline not in ("wave", "digital"):
        raise ConfigValueError(f"'montecarlo.pipeline' unknown: {pipeline}")
    return {
        "trials": _get(section, "trials", int, "montecarlo", required=True),
        "snr_db": tuple(snrs),
        "seed": _get(section, "seed", int, "montecarlo", 0),
        "source_mode": mode,
        "symbol": symbol,
        "pipeline": pipeline,
        "with_bound": _get(section, "with_bound", bool, "montecarlo", True),
        "ideal": _get(section, "ideal", bool, "montecarlo", False),
    }


def _parse_sweep(section):
    allowed = {"mode", "thickness", "layers", "atoms", "spacing", "u_x",
               "rotation_deg", "runs", "seed"}
    _check_keys(section, allowed, "sweep")
    mode = _get(section, "mode", str, "sweep", "ablation")
    if mode not in ("ablation", "receiver"):
        raise ConfigValueError(f"'sweep.mode' unknown: {mode}")
    out = {
        "mode": mode,
        "runs": _get(section, "runs", int, "sweep", 3),
        "seed": _get(section, "seed", int, "sweep", 0),
    }
    if mode == "ablation":
        out["thickness"] = _get_list(section, "thickness", "sweep", required=True)
        layers = _get_list(section, "layers", "sweep", required=True)
        atoms = _get_list(section, "atoms", "sweep", required=True)
        out["layers"] = tuple(int(v) for v in layers)
        out["atoms"] = tuple(int(v) for v in atoms)
        out["spacing"] = _get_list(section, "spacing", "sweep", required=True)
    else:
        out["u_x"] = _get_list(section, "u_x", "sweep", default=[])
        out["rotation_deg"] = _get_list(section, "rotation_deg", "sweep", default=[])
        layers = _get_list(section, "layers", "sweep", default=[])
        out["layers"] = tuple(int(v) for v in layers)
        if not (out["u_x"] or out["rotation_deg"] or out["layers"]):
            raise ConfigValueError("sweep: receiver mode needs at least one of"
                                   " u_x, rotation_deg, layers")
    return out


def _parse_bound(section):
    _check_keys(section, {"snr_db"}, "bound")
    snrs = _get_list(section, "snr_db", "bound", required=True)
    return {"snr_db": tuple(snrs)}


_SECTION_PARSERS = {
    "geometry": _parse_geometry,
    "train": _parse_train,
    "protocol": _parse_protocol,
    "source": _parse_source,
    "estimate": lambda s: _parse_run(s, "estimate", {"snr_db": math.inf}),
    "spectrum": lambda s: _parse_run(s, "spectrum", {"snr_db": math.inf}),
    "bound": _parse_bound,
    "montecarlo": _parse_montecarlo,
    "sweep": _parse_sweep,
}


def parse_config(path):
    """Load and validate a YAML config; returns {section: parsed object}.

    Unknown sections or keys are rejected with the offending dotted path;
    invariant violations are rephrased with their section context. The raw
    document is kept under the "_raw" key for the run manifest.
    """
    if not os.path.exists(path):
        raise ConfigFileError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigSyntaxError(f"malformed YAML in {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigSyntaxError(f"{path}: top level must be a mapping")
    parsed = {"_raw": raw}
    for name, section in raw.items():
        if name not in _SECTION_PARSERS:
            raise ConfigKeyError(f"unknown section '{name}'"
                                 f" (allowed: {', '.join(sorted(_SECTION_PARSERS))})")
        if not isinstance(section, dict):
            raise ConfigSyntaxError(f"section '{name}' must be a mapping")
        parsed[name] = _SECTION_PARSERS[name](section)
    return parsed


def _need(config, name, command):
    if name not in config:
        raise ConfigValueError(f"'{command}' needs a '{name}' section in the config")
    return config[name]


def geometry_hash(geom):
    """Stable digest of every geometric parameter."""
    payload = repr(dataclasses.astuple(geom)).encode()
    return hashlib.sha256(payload).hexdigest()


@dataclass
class RunManifest:
    """Audit record emitted next to every artifact set."""

    command: str
    version: str
    created: str
    config: dict
    seeds: list
    geometry_digest: str
    outputs: list = field(default_factory=list)
    results: dict = field(default_factory=dict)

    def to_dict(self):
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data):
        return cls(**data)

    def save(self, path):
        with open(path, "w") as fh:
            yaml.safe_dump(self.to_dict(), fh, sort_keys=False)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(yaml.safe_load(fh))


def new_manifest(command, config, seeds, geom=None):
    return RunManifest(
        command=command,
        version=__version__,
        created=datetime.now(timezone.utc).isoformat(),
        config=config.get("_raw", {}),
        seeds=[int(s) for s in seeds],
        geometry_digest=geometry_hash(geom) if geom is not None else "",
    )


_STACK_MAGIC = b"PHSTK\x00"


def save_stack(path, stack):
    """Binary phase-stack file: magic, version, dims, float64 phases."""
    xi = np.stack(stack.xi)
    with open(path, "wb") as fh:
        fh.write(_STACK_MAGIC)
        fh.write(struct.pack("<III", 1, xi.shape[0], xi.shape[1]))
        fh.write(np.ascontiguousarray(xi, dtype="<f8").tobytes())


def load_stack(path):
    with open(path, "rb") as fh:
        magic = fh.read(len(_STACK_MAGIC))
        if magic != _STACK_MAGIC:
            raise IOError(f"{path} is not a phase-stack file")
        header = fh.read(12)
        if len(header) != 12:
            raise IOError(f"{path}: truncated stack file")
        version, layers, m = struct.unpack("<III", header)
        if version != 1:
            raise IOError(f"{path}: unsupported stack file version {version}")
        data = np.frombuffer(fh.read(layers * m * 8), dtype="<f8")
        if data.size != layers * m:
            raise IOError(f"{path}: truncated stack file")
    if not np.all(np.isfinite(data)):
        raise IOError(f"{path}: stack file holds non-finite phases")
    return PhaseStack(list(data.reshape(layers, m).copy()))


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _outdir(args):
    out = args.outdir or os.environ.get("SIMDOA_OUTDIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _response_for(config, args, command):
    """Resolve (g, beta, n_x, n_y) from --stack, ideal flag, or inline fit."""
    geom = _need(config, "geometry", command)
    ideal = config.get(command, {}).get("ideal", False)
    if getattr(args, "stack", None):
        if not os.path.exists(args.stack):
            raise IOError(f"stack file not found: {args.stack}")
        stack = load_stack(args.stack)
        props = build_propagation_matrices(geom)
        if stack.layers != geom.layers or stack.xi[0].size != geom.m:
            raise IOError(f"{args.stack}: stack dims do not match the geometry")
        g = forward_response(props, stack)
        beta = optimal_scale(g, dft_matrix(geom.n_x, geom.n_y).matrix)
        return g, beta, geom
    if ideal:
        return dft_matrix(geom.n_x, geom.n_y).matrix, 1.0 + 0.0j, geom
    raise ConfigValueError(f"'{command}' needs --stack FILE or"
                           f" '{command}.ideal: true'")


def _cmd_fit(args, config):
    geom = _need(config, "geometry", "fit")
    train_cfg = _need(config, "train", "fit")
    props = build_propagation_matrices(geom)
    f = dft_matrix(geom.n_x, geom.n_y).matrix
    reports = train_restarts(props, f, train_cfg)
    best = min(reports, key=lambda r: r.best_loss)
    out = _outdir(args)
    stack_path = os.path.join(out, "stack.bin")
    save_stack(stack_path, best.stack)
    hist_path = os.path.join(out, "loss_history.csv")
    write_csv(hist_path, ["iteration", "loss", "loss_db"],
              [(i, f"{l:.17g}", f"{d:.10g}") for i, (l, d)
               in enumerate(zip(best.loss_history, best.loss_db_history))])
    manifest = new_manifest("fit", config, [r.seed for r in reports], geom)
    manifest.outputs = ["stack.bin", "loss_history.csv"]
    manifest.results = {
        "best_db": float(best.best_db),
        "best_seed": int(best.seed),
        "beta_abs": float(abs(best.beta)),
        "iterations": int(best.iterations),
        "stop_reason": best.stop_reason,
    }
    manifest.save(os.path.join(out, "fit-manifest.yaml"))
    print(f"fit: best {best.best_db:.2f} dB (seed {best.seed})"
          f" -> {stack_path}")
    return 0


def _spectrum_map(config, args, command):
    g, beta, geom = _response_for(config, args, command)
    proto = _need(config, "protocol", command)
    source = _need(config, "source", command)
    run = config.get(command, {"snr_db": math.inf, "seed": 0, "ideal": False})
    sv = steering_for(source.psi_x, source.psi_y, geom.n_x, geom.n_y)
    snr = run["snr_db"]
    if snr is None or math.isinf(snr):
        rho, noise = 1.0, None
    else:
        gamma = 10.0 ** (snr / 10.0)
        rho = experiments.effective_rho(gamma, beta, geom.n, proto.t)
        noise = np.random.default_rng(run["seed"])
    emap = collect_snapshots(g, sv, source.s, rho, proto, geom.n_x, geom.n_y,
                             noise=noise)
    return emap, proto, geom, source


def _cmd_spectrum(args, config):
    emap, proto, geom, source = _spectrum_map(config, args, "spectrum")
    axis_x, axis_y, power = angular_spectrum(emap, proto, geom.n_x, geom.n_y)
    rows = []
    for iy in range(axis_y.size):
        for ix in range(axis_x.size):
            rows.append((f"{axis_x[ix]:.10g}", f"{axis_y[iy]:.10g}",
                         f"{power[iy, ix]:.17g}"))
    out = _outdir(args)
    path = os.path.join(out, "spectrum.csv")
    write_csv(path, ["psi_x", "psi_y", "power"], rows)
    manifest = new_manifest("spectrum", config, [], geom)
    manifest.outputs = ["spectrum.csv"]
    peak = int(np.argmax(power))
    manifest.results = {
        "peak_psi_x": float(axis_x[peak % axis_x.size]),
        "peak_psi_y": float(axis_y[peak // axis_x.size]),
        "true_psi_x": source.psi_x,
        "true_psi_y": source.psi_y,
    }
    manifest.save(os.path.join(out, "spectrum-manifest.yaml"))
    print(f"spectrum: peak at ({manifest.results['peak_psi_x']:.4g},"
          f" {manifest.results['peak_psi_y']:.4g}) -> {path}")
    return 0


def _cmd_estimate(args, config):
    emap, proto, geom, source = _spectrum_map(config, args, "estimate")
    est = estimate_from_map(emap, proto, geom.n_x, geom.n_y, geom=geom)
    out = _outdir(args)
    path = os.path.join(out, "estimate.csv")
    write_csv(path,
              ["antenna", "snapshot", "psi_x", "psi_y", "phi_rad", "theta_rad"],
              [(est.n, est.t, f"{est.psi_x:.10g}", f"{est.psi_y:.10g}",
                f"{est.phi:.10g}", f"{est.theta:.10g}")])
    manifest = new_manifest("estimate", config, [], geom)
    manifest.outputs = ["estimate.csv"]
    manifest.results = {"psi_x": est.psi_x, "psi_y": est.psi_y,
                        "antenna": est.n, "snapshot": est.t}
    manifest.save(os.path.join(out, "estimate-manifest.yaml"))
    print(f"estimate: cell (n={est.n}, t={est.t}) psi=({est.psi_x:.4g},"
          f" {est.psi_y:.4g}) -> {path}")
    return 0


def _cmd_bound(args, config):
    g, beta, geom = _response_for(config, args, "bound")
    proto = _need(config, "protocol", "bound")
    source = _need(config, "source", "bound")
    snrs = _need(config, "bound", "bound")["snr_db"]
    rows = []
    for snr in snrs:
        gamma = 10.0 ** (snr / 10.0)
        rho = experiments.effective_rho(gamma, beta, geom.n, proto.t)
        inp = analysis.BoundInputs(g=g, proto=proto, n_x=geom.n_x, n_y=geom.n_y,
                                   psi_x=source.psi_x, psi_y=source.psi_y,
                                   rho=rho, s=source.s)
        bx, by = analysis.mse_bound(inp)
        rows.append((f"{snr:.10g}", f"{bx:.10g}", f"{by:.10g}"))
    out = _outdir(args)
    path = os.path.join(out, "bound.csv")
    write_csv(path, ["effective_snr_db", "mse_x_bound", "mse_y_bound"], rows)
    manifest = new_manifest("bound", config, [], geom)
    manifest.outputs = ["bound.csv"]
    manifest.save(os.path.join(out, "bound-manifest.yaml"))
    print(f"bound: {len(rows)} SNR points -> {path}")
    return 0


def _cmd_montecarlo(args, config):
    mc = _need(config, "montecarlo", "montecarlo")
    geom = _need(config, "geometry", "montecarlo")
    proto = _need(config, "protocol", "montecarlo")
    if mc["pipeline"] == "digital":
        g, beta = None, 1.0 + 0.0j
    else:
        section_ideal = mc["ideal"]
        if getattr(args, "stack", None) or not section_ideal:
            g, beta, geom = _response_for(config, args, "montecarlo")
        else:
            g, beta = dft_matrix(geom.n_x, geom.n_y).matrix, 1.0 + 0.0j
    cfg = experiments.McConfig(
        n_x=geom.n_x, n_y=geom.n_y, proto=proto, snr_db=mc["snr_db"],
        trials=mc["trials"], g=g, beta=beta, seed=mc["seed"],
        source_mode=mc["source_mode"], symbol=mc["symbol"],
        pipeline=mc["pipeline"], with_bound=mc["with_bound"],
        jobs=args.jobs,
    )
    points = experiments.run_monte_carlo(cfg)
    rows = [(f"{p.snr_db:.10g}", f"{p.mse_x:.10g}", f"{p.mse_y:.10g}",
             f"{p.mse:.10g}", f"{p.se:.10g}", f"{p.bound_x:.10g}",
             f"{p.bound_y:.10g}", f"{p.bound:.10g}", f"{p.bound_se:.10g}",
             p.trials, p.low_trials) for p in points]
    out = _outdir(args)
    path = os.path.join(out, "montecarlo.csv")
    write_csv(path, ["effective_snr_db", "mse_x", "mse_y", "mse", "se",
                     "bound_x", "bound_y", "bound", "bound_se", "trials",
                     "low_trials"], rows)
    manifest = new_manifest("montecarlo", config, [mc["seed"]], geom)
    manifest.outputs = ["montecarlo.csv"]
    manifest.results = {"points": len(points),
                        "source_mode": mc["source_mode"],
                        "symbol": mc["symbol"],
                        "pipeline": mc["pipeline"]}
    manifest.save(os.path.join(out, "montecarlo-manifest.yaml"))
    print(f"montecarlo: {len(points)} SNR points x {mc['trials']} trials -> {path}")
    return 0


def _cmd_sweep(args, config):
    sw = _need(config, "sweep", "sweep")
    geom = _need(config, "geometry", "sweep")
    train_cfg = _need(config, "train", "sweep")
    out = _outdir(args)
    if sw["mode"] == "ablation":
        spec = experiments.SweepSpec(
            n_x=geom.n_x, n_y=geom.n_y,
            thickness_lam=tuple(sw["thickness"]), layers=sw["layers"],
            atoms=sw["atoms"], spacing_lam=tuple(sw["spacing"]),
            train=train_cfg, runs=sw["runs"], seed=sw["seed"],
            wavelength=geom.wavelength, jobs=args.jobs,
        )
        cells = experiments.ablation_sweep(spec)
        rows = [(c.thickness_lam, c.layers, c.atoms, c.spacing_lam, c.feasible,
                 c.note, f"{c.mean_db:.6g}", f"{c.min_db:.6g}",
                 f"{c.max_db:.6g}", c.runs) for c in cells]
        path = os.path.join(out, "sweep.csv")
        write_csv(path, ["thickness_lam", "layers", "atoms", "spacing_lam",
                         "feasible", "note", "mean_db", "min_db", "max_db",
                         "runs"], rows)
    else:
        lam = geom.wavelength
        rows_obj = experiments.receiver_study(
            geom, train_cfg,
            u_x=tuple(v * lam for v in sw["u_x"]),
            rotation=tuple(math.radians(v) for v in sw["rotation_deg"]),
            layers=sw["layers"], runs=sw["runs"], seed=sw["seed"])
        rows = [(r.parameter, f"{r.value:.10g}", f"{r.mean_db:.6g}",
                 f"{r.min_db:.6g}", f"{r.max_db:.6g}", r.runs) for r in rows_obj]
        path = os.path.join(out, "receiver.csv")
        write_csv(path, ["parameter", "value", "mean_db", "min_db", "max_db",
                         "runs"], rows)
    manifest = new_manifest("sweep", config, [sw["seed"]], geom)
    manifest.outputs = [os.path.basename(path)]
    manifest.results = {"mode": sw["mode"], "cells": len(rows)}
    manifest.save(os.path.join(out, "sweep-manifest.yaml"))
    print(f"sweep: {len(rows)} cells -> {path}")
    return 0


def _cmd_gradcheck(args, config):
    rng = np.random.default_rng(0)
    worst = 0.0
    for case in range(20):
        n_side = int(rng.integers(1, 3))
        m_side = int(rng.integers(2, 4))
        layers = int(rng.integers(1, 4))
        lam = 0.005
        geom = SimGeometry(
            wavelength=lam, n_x=n_side, n_y=n_side, d_x=lam / 2, d_y=lam / 2,
            m_x=m_side, m_y=m_side, s_x=lam / 2, s_y=lam / 2,
            layers=layers, thickness=3 * lam * layers)
        props = build_propagation_matrices(geom)
        stack = random_stack(layers, geom.m, rng)
        f = dft_matrix(n_side, n_side).matrix
        # off-optimum beta keeps the residual nonzero on degenerate sizes
        beta = optimal_scale(forward_response(props, stack), f) * (1.1 + 0.3j)
        exact = gradient(props, stack, f, beta)
        approx = finite_diff_gradient(props, stack, f, beta)
        for ga, gf in zip(exact, approx):
            scale = max(float(np.max(np.abs(gf))), 1e-300)
            worst = max(worst, float(np.max(np.abs(ga - gf))) / scale)
    print(f"gradcheck: max relative error {worst:.3e} over 20 instances")
    return 0 if worst <= 1e-6 else 1


_COMMANDS = {
    "fit": _cmd_fit,
    "spectrum": _cmd_spectrum,
    "estimate": _cmd_estimate,
    "bound": _cmd_bound,
    "montecarlo": _cmd_montecarlo,
    "sweep": _cmd_sweep,
    "gradcheck": _cmd_gradcheck,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="simdoa",
        description="Stacked-metasurface DFT fitting and energy-peak"
                    " direction estimation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        if name != "gradcheck":
            p.add_argument("--config", "-c", required=True,
                           help="YAML config file")
        p.add_argument("--outdir", "-o", default=None,
                       help="output directory (or set SIMDOA_OUTDIR)")
        p.add_argument("--jobs", "-j", type=int,
                       default=os.cpu_count() or 1,
                       help="worker processes for experiment queues")
        if name in ("spectrum", "estimate", "bound", "montecarlo"):
            p.add_argument("--stack", default=None,
                           help="phase-stack file from a previous fit")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config) if getattr(args, "config", None) else {}
        return _COMMANDS[args.command](args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IOError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
