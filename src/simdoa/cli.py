"""Command-line front end: config parsing, artifact files, subcommands.

Exit codes: 0 success, 1 runtime or numeric failure, 2 usage or config
failure. All config lengths are in wavelengths; the absolute wavelength
defaults to 5 mm (60 GHz).
"""

import csv
import dataclasses
import math
import os
import struct
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, experiments
from .estimator import ProtocolConfig, angular_spectrum, collect_snapshots, estimate_from_map
from .geometry import (_AT_LEAST_ONE, _FINITE, _NON_NEGATIVE, SimGeometry,
                       build_propagation_matrices, check_value, dft_matrix, steering_vector)
from .trainer import TrainConfig
from .wavemodel import PhaseStack, cn_noise, forward_response, optimal_scale, synthesize_received


class ConfigError(Exception):
    """A configuration failure: missing file, bad YAML, unknown key or bad value (exit code 2)."""


_REQUIRED = object()  # table default of a key that must be given
_INDEX_MAX = int(np.iinfo(np.intp).max)
# an array size or count of snapshots or trials; seeds take any non-negative int
_SIZE = (lambda v: v <= _INDEX_MAX, f"must be at most {_INDEX_MAX}, numpy's largest index")


def _power_fits(snr_db):
    """Whether the linear power 10**(snr_db/10) that the runs compute is a float."""
    try:
        return snr_db == math.inf or 10.0 ** (snr_db / 10.0) < math.inf
    except OverflowError:
        return False


# an SNR's power overflows from about 3083 dB on; 'inf' is the noise-free run
_SNR_POWER = (_power_fits, "is too large: its power 10**(snr_db/10) overflows a float")


def _exponent_hint(value):
    """A hint for a number that YAML 1.1 reads as a string, such as 1e-200; '' for other values."""
    if isinstance(value, str) and "e" in value.lower():
        try:
            float(value)
        except ValueError:
            return ""
        return " (YAML reads an exponent as a number only with a dot and a sign, as in 1.0e-200)"
    return ""


def _value(value, kind, key, checks=()):
    """``value`` checked as ``kind`` and by each (test, message) of ``checks``.

    Kinds and messages are ``geometry.check_value``'s; YAML lists must be nonempty (read
    as a tuple), and ints and the string 'inf' widen to float. A ConfigError names ``key``.
    """
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"'{key}' must be a nonempty list")
        return tuple(_value(v, kind[0], f"{key}[{i}]", checks)
                     for i, v in enumerate(value))
    if kind is float and (value == "inf" or isinstance(value, int) and not isinstance(value, bool)):
        try:  # YAML reads inf as a string; as an SNR it is the noise-free run
            value = float(value)
        except OverflowError:
            raise ConfigError(f"'{key}' is too large for a float") from None
    try:
        check_value(f"'{key}'", value, kind, checks)
    except ValueError as exc:
        raise ConfigError(f"{exc}{_exponent_hint(value) if kind is float else ''}") from None
    return value


def _read(section, path, table):
    """Values of ``section`` by ``table``: {key: (kind, default, *(test, message))}."""
    for key in section:
        if key not in table:
            raise ConfigError(f"unknown key '{path}.{key}'"
                              f" (allowed: {', '.join(sorted(table))})")
    values = {}
    for key, (kind, default, *checks) in table.items():
        if key in section:
            values[key] = _value(section[key], kind, f"{path}.{key}", checks)
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key '{path}.{key}'")
        else:
            values[key] = default
    return values


def _table(cls, **keys):
    """A ``_read`` table of ``keys``, each (default, *the CLI's own checks) or () for neither.

    A key takes the kind, checks and default of ``cls``'s field of its name less a unit suffix
    (_deg, _mm), so the record and the CLI refuse a value alike.
    """
    table = {}
    for key, entry in keys.items():
        f = cls.__dataclass_fields__[key.removesuffix("_deg").removesuffix("_mm")]
        default, *checks = entry or (f.default,)
        table[key] = (f.metadata["kind"], default, *f.metadata["checks"], *checks)
    return table


def _from_fields(cls, **checks):
    """Parser of a section whose keys are ``cls``'s fields, ``checks`` adding the CLI's own."""
    table = _table(cls, **{f.name: (f.default, *checks.get(f.name, ()))
                           for f in dataclasses.fields(cls)})
    return lambda section, path: cls(**_read(section, path, table))


# Lengths are in wavelengths; unset stack fields give the best known 7-layer design.
_GEOMETRY = _table(SimGeometry, n_x=(_REQUIRED, _SIZE), n_y=(_REQUIRED, _SIZE), d_x=(0.5,),
                   d_y=(0.5,), m_x=(11, _SIZE), m_y=(11, _SIZE), s_x=(0.5,), s_y=(0.5,),
                   layers=(7, _SIZE), thickness=(9.0,), u_x=(), u_y=(),
                   rotation_deg=(0.0,), wavelength_mm=(5.0,))  # u_x, u_y: the input spacing
# Either angle form may be given (None: not given), not both.
_PSI = (lambda v: -1.0 <= v < 1.0, "must lie in [-1, 1)")
_SOURCE = {
    "psi_x": (float, None, _PSI), "psi_y": (float, None, _PSI),
    "phi_deg": (float, None, _FINITE),
    "theta_deg": (float, None, (lambda v: 0.0 <= v <= 90.0, "must lie in [0, 90]")),
    "s_real": (float, 1.0, _FINITE), "s_imag": (float, 0.0, _FINITE),
}
_MONTECARLO = {
    **_table(experiments.McConfig, trials=(_REQUIRED, _SIZE), snr_db=(_REQUIRED, _SNR_POWER),
             seed=(), source_mode=(), symbol=(), pipeline=(), with_bound=()),
    "ideal": (bool, False),
}
# one SNR takes the checks of each Monte Carlo SNR
_RUN = {"snr_db": (float, math.inf, *_MONTECARLO["snr_db"][2:]), "seed": (int, 0, _NON_NEGATIVE),
        "ideal": (bool, False)}
_BOUND = {"snr_db": ([float], _REQUIRED, _FINITE, _SNR_POWER)}
_SWEEP_RUNS = {"runs": (int, 3, _AT_LEAST_ONE), "seed": (int, 0, _NON_NEGATIVE)}
_SWEEP = {  # one table per sweep mode; the receiver's lists hold SimGeometry's fields
    "ablation": {**_SWEEP_RUNS, "thickness": ([float], _REQUIRED),
                 "layers": ([int], _REQUIRED, _SIZE), "atoms": ([int], _REQUIRED, _SIZE),
                 "spacing": ([float], _REQUIRED)},
    "receiver": {**_SWEEP_RUNS, **{key: ([kind], *rest) for key, (kind, *rest) in _table(
        SimGeometry, u_x=((),), rotation_deg=((),), layers=((), _SIZE)).items()}},
}
_SWEEP_MODE = {"mode": (tuple(_SWEEP), "ablation")}
# Work caps, each (cap, what, factors); _COMMANDS names the rows each subcommand obeys.
# The lattice cap bounds memory: the lattice keeps six real (N, T) arrays and
# the complex exp(j xi0), 64 MiB at the cap, and its build peaks near 97 MiB
# (about 0.3 s) before any snapshot is taken. A Monte Carlo SNR point runs
# trials x R x T cells (R = N) at about 0.2 us a cell, about 15 minutes at its
# cap. The fit rows bind fits, and _MATRICES --stack runs too:
# the matrices take about 73 bytes and 0.17 us a cell of M^2, so near 300 MiB
# and 0.7 s at the cap; the trainer's complex (L, M, N) layer inputs take
# 256 MiB at theirs; an iteration's GEMMs run layers x M^2 x N complex
# multiply-adds at about 3e9 a second, so the fit's cap is about 12 minutes.
_M2 = ("geometry.m_x", "geometry.m_y", "geometry.m_x", "geometry.m_y")
_MATRICES = (2 ** 22, "propagation matrix cells", _M2)
_LATTICE = (2 ** 20, "lattice cells",
            ("geometry.n_x", "geometry.n_y", "protocol.t_x", "protocol.t_y"))
_MC_CELLS = (2 ** 32, "Monte Carlo cells per SNR point",
             ("montecarlo.trials", "geometry.n_x", "geometry.n_y", "protocol.t_x", "protocol.t_y"))
_FIT = (
    _MATRICES,
    (2 ** 24, "layer-input cells",
     ("geometry.layers", "geometry.m_x", "geometry.m_y", "geometry.n_x", "geometry.n_y")),
    (2 ** 41, "multiply-adds in the fit's GEMMs",
     ("geometry.layers", *_M2, "geometry.n_x", "geometry.n_y", "train.max_iters",
      "train.restarts")),
)


def _parse_geometry(section, path):
    values = _read(section, path, _GEOMETRY)
    lam = values.pop("wavelength_mm") * 1e-3
    rotation = math.radians(values.pop("rotation_deg"))
    # every other float is a length in wavelengths, which in meters may leave a float's range
    meters = {k: v * lam for k, v in values.items() if isinstance(v, float)}
    for key, v in {"wavelength_mm": lam, **meters}.items():
        if not 0.0 < v < math.inf:
            raise ConfigError(f"'{path}.{key}' gives a length of {v!r} m, beyond a float's range")
    return SimGeometry(wavelength=lam, rotation=rotation, **{**values, **meters})


def _parse_source(section, path):
    v = _read(section, path, _SOURCE)
    angles = v["phi_deg"] is not None or v["theta_deg"] is not None
    if angles and (v["psi_x"] is not None or v["psi_y"] is not None):
        raise ConfigError(f"give '{path}.psi_x'/'{path}.psi_y' or"
                          f" '{path}.phi_deg'/'{path}.theta_deg', not both")
    for key in ("phi_deg", "theta_deg") if angles else ("psi_x", "psi_y"):
        if v[key] is None:
            raise ConfigError(f"missing required key '{path}.{key}'")
    if angles:
        phi, theta = math.radians(v["phi_deg"]), math.radians(v["theta_deg"])
        psi_x = math.sin(theta) * math.cos(phi)
        psi_y = math.sin(theta) * math.sin(phi)
    else:
        psi_x, psi_y = v["psi_x"], v["psi_y"]
    s = complex(v["s_real"], v["s_imag"])
    if s == 0:
        raise ConfigError(f"'{path}.s_real' and '{path}.s_imag' give a zero symbol")
    return {"psi_x": psi_x, "psi_y": psi_y, "s": s}


def _parse_sweep(section, path):
    mode = _read({k: section[k] for k in _SWEEP_MODE if k in section}, path, _SWEEP_MODE)["mode"]
    values = _read(section, path, {**_SWEEP_MODE, **_SWEEP[mode]})
    if mode == "receiver" and not (values["u_x"] or values["rotation_deg"]
                                   or values["layers"]):
        raise ConfigError(f"'{path}.mode' receiver needs at least one of '{path}.u_x',"
                          f" '{path}.rotation_deg', '{path}.layers'")
    return values


_SECTION_PARSERS = {
    "geometry": _parse_geometry,
    "train": _from_fields(TrainConfig),
    "protocol": _from_fields(ProtocolConfig, t_x=(_SIZE,), t_y=(_SIZE,)),
    "source": _parse_source,
    "estimate": lambda s, path: _read(s, path, _RUN),
    "spectrum": lambda s, path: _read(s, path, _RUN),
    "bound": lambda s, path: _read(s, path, _BOUND),
    "montecarlo": lambda s, path: _read(s, path, _MONTECARLO),
    "sweep": _parse_sweep,
}


def parse_config(path):
    """Load and validate a YAML config; returns {section: parsed object}.

    Each section is read by its table above, which holds every rule of the
    record it builds, so a bad key or value is refused with its dotted path.
    The raw document is kept under "_raw" for the manifest.
    """
    import yaml  # only a run that reads or writes YAML loads it
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    parsed = {"_raw": raw}
    for name, section in raw.items():
        if name not in _SECTION_PARSERS:
            raise ConfigError(f"unknown section '{name}'"
                              f" (allowed: {', '.join(sorted(_SECTION_PARSERS))})")
        if not isinstance(section, dict):
            raise ConfigError(f"section '{name}' must be a mapping")
        parsed[name] = _SECTION_PARSERS[name](section, name)
    return parsed


def _check_work(parsed, rows, sweep):
    """Refuse a config whose work exceeds a cap of ``rows``, naming its largest factor's key.

    The rows bind the base geometry, or with ``sweep`` each cell that the sweep fits, under
    the cell's keys, and the fits' GEMM work in sum.
    """
    cells, sw = [{}], parsed.get("sweep")
    if sweep:  # each fitted cell as {base key: sweep key, or None to drop it}
        layers = [{"geometry.layers": f"sweep.layers[{i}]"} for i in range(len(sw["layers"]))]
        if sw["mode"] == "receiver":
            cells = [{}] * (len(sw["u_x"]) + len(sw["rotation_deg"])) + layers
        else:  # the cells that experiments.ablation_variant does not flag; the count is M
            geom = parsed["geometry"]
            cells = [{**layers[i], "geometry.m_x": f"sweep.atoms[{j}]", "geometry.m_y": None}
                     for t in sw["thickness"] for i, n in enumerate(sw["layers"])
                     for j, m in enumerate(sw["atoms"]) for d in sw["spacing"]
                     if not isinstance(experiments.ablation_variant(geom, t, n, m, d), str)]
        cells = [{"train.restarts": "sweep.runs", **cell} for cell in cells]
        parsed = {**parsed, "sweep": {**sw, **{f"{key}[{i}]": v for key in ("layers", "atoms")
                                               for i, v in enumerate(sw.get(key, ()))}}}
    for cap, what, keys in rows:
        terms = [[k for k in (cell.get(key, key) for key in keys) if k] for cell in cells]
        for each in [terms] if "train.restarts" in keys else [[term] for term in terms]:
            _check_cap(parsed, cap, what, *each)


def _check_cap(parsed, cap, what, *terms):
    """Refuse ``parsed`` if its ``terms``' products sum above ``cap``, naming the largest key."""
    view = {name: obj if isinstance(obj, dict) else vars(obj) for name, obj in parsed.items()}
    values = [[view[section][name] for section, name in (key.split(".") for key in keys)]
              for keys in terms]
    products = [math.prod(term) for term in values]
    if sum(products) > cap:
        i = products.index(max(products))
        more = f" + {len(terms) - 1} more cells" if len(terms) > 1 else ""
        raise ConfigError(f"'{terms[i][values[i].index(max(values[i]))]}' asks for too much work:"
                          f" {' * '.join(terms[i])}{more} = {sum(products)} {what},"
                          f" above the cap of {cap}")


_STACK_MAGIC = b"PHSTK\x00"


def save_stack(path, stack):
    """Binary phase-stack file: magic, version, dims, float64 phases."""
    xi = stack.xi
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
        # checked before reading, so a forged header cannot ask for more than the file holds
        if layers * m * 8 > os.fstat(fh.fileno()).st_size - fh.tell():
            raise IOError(f"{path}: truncated stack file")
        data = np.frombuffer(fh.read(layers * m * 8), dtype="<f8")
    if not np.all(np.isfinite(data)):  # PhaseStack refuses them too, but names no file
        raise IOError(f"{path}: stack file holds non-finite phases")
    return PhaseStack(data.reshape(layers, m))


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _outdir(args):
    out = args.outdir or os.environ.get("SIMDOA_OUTDIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _emit(args, config, command, name, header, rows, geom, seeds=(), results=None, also=()):
    """Write ``command``'s CSV ``name`` and its ``<command>-manifest.yaml``; returns the CSV path.

    The manifest is the audit record of the run: the raw config, the seeds,
    a digest of every geometric parameter, the outputs and the results.
    ``also`` names files the command already wrote to the output directory;
    the manifest lists them before the CSV.
    """
    import hashlib
    import yaml  # only a run that reads or writes YAML loads it
    out = _outdir(args)
    path = os.path.join(out, name)
    write_csv(path, header, rows)
    manifest = {
        "command": command,
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "config": config.get("_raw", {}),
        "seeds": [int(s) for s in seeds],
        "geometry_digest": hashlib.sha256(repr(dataclasses.astuple(geom)).encode()).hexdigest(),
        "outputs": [*also, name],
        "results": results or {},
    }
    with open(os.path.join(out, f"{command}-manifest.yaml"), "w") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=False)
    return path


def _response_for(config, args, command, ideal=None):
    """(g, beta, geom) from --stack, else the exact DFT if ``ideal`` (None: no such key)."""
    geom = config["geometry"]
    if args.stack:
        _check_cap(config, *_MATRICES)
        if not os.path.exists(args.stack):
            raise IOError(f"stack file not found: {args.stack}")
        stack = load_stack(args.stack)
        if stack.layers != geom.layers or stack.xi.shape[1] != geom.m:
            raise IOError(f"{args.stack}: stack dims do not match the geometry")
        with np.errstate(over="ignore", invalid="ignore"):
            g = forward_response(build_propagation_matrices(geom), stack)
            if not np.all(np.isfinite(g)):
                raise ValueError(f"{args.stack}: the stack's response leaves a float's range")
            beta = optimal_scale(g, dft_matrix(geom.n_x, geom.n_y).matrix)
        if not np.isfinite(beta):  # a response power below 1/DBL_MAX
            raise ValueError(f"{args.stack}: the stack's fitted scale beta leaves a float's range")
        return g, beta, geom
    if ideal:
        return dft_matrix(geom.n_x, geom.n_y).matrix, 1.0 + 0.0j, geom
    raise ConfigError(f"'{command}' needs --stack FILE" + (
        "" if ideal is None else f" or '{command}.ideal: true'"))


def _cmd_fit(args, config):
    geom = config["geometry"]
    best, _, _, reports = experiments.fit_reference(geom, config["train"])
    stack_path = os.path.join(_outdir(args), "stack.bin")
    save_stack(stack_path, best.stack)
    _emit(args, config, "fit", "loss_history.csv", ["iteration", "loss", "loss_db"],
          [(i, f"{l:.17g}", f"{d:.10g}") for i, (l, d)
           in enumerate(zip(best.loss_history, best.loss_db_history))],
          geom, [r.seed for r in reports], {
              "best_db": float(best.best_db),
              "best_seed": int(best.seed),
              "beta_abs": float(abs(best.beta)),
              "iterations": int(best.iterations),
              "stop_reason": best.stop_reason,
              "restarts": [{"seed": int(r.seed), "best_db": float(r.best_db),
                            "best_iteration": int(r.best_iteration),
                            "stop_reason": r.stop_reason} for r in reports],
          }, also=["stack.bin"])
    print(f"fit: best {best.best_db:.2f} dB (seed {best.seed})"
          f" -> {stack_path}")
    return 0


def _spectrum_map(config, args, command):
    run = config.get(command) or _read({}, command, _RUN)
    g, beta, geom = _response_for(config, args, command, run["ideal"])
    proto, source = config["protocol"], config["source"]
    sv = steering_vector(source["psi_x"], source["psi_y"], geom.n_x, geom.n_y)
    snr = run["snr_db"]
    if math.isinf(snr):
        rho, noise = 1.0, None
    else:
        rho = experiments.snr_rho(snr, beta, geom.n, proto.t)
        rng = np.random.default_rng(run["seed"])  # unit complex noise, one snapshot after another
        noise = np.stack([cn_noise(rng, len(g)) for _ in range(proto.t)], axis=1)
    lattice = proto.lattice(geom.n_x, geom.n_y, (geom.d_x / geom.wavelength,
                                                 geom.d_y / geom.wavelength))
    try:  # energies beyond a float's range: EnergyMap refuses them, with no RuntimeWarning
        with np.errstate(over="ignore", invalid="ignore"):
            emap = collect_snapshots(synthesize_received(g, lattice.zeroth, sv), source["s"], rho,
                                     noise=noise)
    except ValueError as exc:
        raise ValueError(f"snr_db {snr:g}: {exc}") from None
    return emap, lattice, geom, source


def _cmd_spectrum(args, config):
    emap, lattice, geom, source = _spectrum_map(config, args, "spectrum")
    axis_x, axis_y, power = angular_spectrum(emap, lattice)
    rows = [(f"{x:.10g}", f"{y:.10g}", f"{p:.17g}")
            for y, row in zip(axis_y, power) for x, p in zip(axis_x, row)]
    peak = int(np.argmax(power))
    results = {
        "peak_psi_x": float(axis_x[peak % axis_x.size]),
        "peak_psi_y": float(axis_y[peak // axis_x.size]),
        "true_psi_x": source["psi_x"],
        "true_psi_y": source["psi_y"],
    }
    path = _emit(args, config, "spectrum", "spectrum.csv", ["psi_x", "psi_y", "power"], rows,
                 geom, results=results)
    print(f"spectrum: peak at ({results['peak_psi_x']:.4g},"
          f" {results['peak_psi_y']:.4g}) -> {path}")
    return 0


def _cmd_estimate(args, config):
    emap, lattice, geom, source = _spectrum_map(config, args, "estimate")
    est = estimate_from_map(emap, lattice)
    path = _emit(args, config, "estimate", "estimate.csv",
                 ["antenna", "snapshot", "psi_x", "psi_y", "phi_rad", "theta_rad"],
                 [(est.n, est.t, f"{est.psi_x:.10g}", f"{est.psi_y:.10g}",
                   f"{est.phi:.10g}", f"{est.theta:.10g}")],
                 geom, results={"psi_x": est.psi_x, "psi_y": est.psi_y,
                                "antenna": est.n, "snapshot": est.t})
    print(f"estimate: cell (n={est.n}, t={est.t}) psi=({est.psi_x:.4g},"
          f" {est.psi_y:.4g}) -> {path}")
    return 0


def _cmd_bound(args, config):
    from . import analysis  # only 'bound' and 'montecarlo' load it
    g, beta, geom = _response_for(config, args, "bound")
    proto, source = config["protocol"], config["source"]
    lattice = proto.lattice(geom.n_x, geom.n_y)
    field = analysis.clean_field(g, lattice, steering_vector(source["psi_x"], source["psi_y"],
                                                             geom.n_x, geom.n_y))
    with np.errstate(over="ignore", invalid="ignore"):  # the bound's cell powers, at any SNR
        power = np.abs(field * source["s"]) ** 2
    if np.all(np.isfinite(field)) and not np.all(np.isfinite(power)):
        raise ValueError("'source.s_real' and 'source.s_imag' give a symbol whose cell powers"
                         " |G a s|**2 leave a float's range")
    rows = []
    s, psi_x, psi_y = (np.array([source[key]]) for key in ("s", "psi_x", "psi_y"))  # one trial
    for snr in config["bound"]["snr_db"]:
        rho = experiments.snr_rho(snr, beta, geom.n, proto.t)
        (bx,), (by,) = analysis.mse_bound(field[None], s, rho, lattice, psi_x, psi_y)
        if not (math.isfinite(bx) and math.isfinite(by)):
            raise ValueError(f"snr_db {snr:g} gives an MSE bound beyond a float's range")
        rows.append((f"{snr:.10g}", f"{bx:.10g}", f"{by:.10g}"))
    path = _emit(args, config, "bound", "bound.csv",
                 ["effective_snr_db", "mse_x_bound", "mse_y_bound"], rows, geom)
    print(f"bound: {len(rows)} SNR points -> {path}")
    return 0


def _cmd_montecarlo(args, config):
    mc, geom, proto = config["montecarlo"], config["geometry"], config["protocol"]
    for key in ("d_x", "d_y"):  # trials draw and recover angles at half-wave spacing
        if getattr(geom, key) != geom.wavelength / 2:
            raise ConfigError(f"'geometry.{key}' must be 0.5 for 'montecarlo', whose trials"
                              f" assume half-wave input spacing, got"
                              f" {getattr(geom, key) / geom.wavelength:g}")
    if mc["pipeline"] == "digital":
        g, beta = None, 1.0 + 0.0j
    else:
        g, beta, geom = _response_for(config, args, "montecarlo", mc["ideal"])
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
    path = _emit(args, config, "montecarlo", "montecarlo.csv",
                 ["effective_snr_db", "mse_x", "mse_y", "mse", "se", "bound_x", "bound_y",
                  "bound", "bound_se", "trials", "low_trials"], rows, geom, [mc["seed"]], {
                     "points": len(points),
                     "source_mode": mc["source_mode"],
                     "symbol": mc["symbol"],
                     "pipeline": mc["pipeline"],
                     # per SNR point: peaks off the visible region, and bound / MSE
                     "per_point": [{"snr_db": p.snr_db, "unrealizable": p.unrealizable,
                                    "bound_over_mse": p.bound / p.mse if p.mse else math.nan}
                                   for p in points]})
    print(f"montecarlo: {len(points)} SNR points x {mc['trials']} trials -> {path}")
    return 0


def _cmd_sweep(args, config):
    sw, geom, train_cfg = config["sweep"], config["geometry"], config["train"]
    for key, by in (("restarts", "runs"), ("seed", "seed")):  # the sweep's keys set its fits
        if key in config["_raw"]["train"]:
            raise ConfigError(f"'train.{key}' does not apply to 'sweep': set 'sweep.{by}' instead")
    if sw["mode"] == "ablation":
        cells = experiments.ablation_sweep(
            geom, train_cfg, thickness_lam=sw["thickness"], layers=sw["layers"],
            atoms=sw["atoms"], spacing_lam=sw["spacing"], runs=sw["runs"],
            seed=sw["seed"], jobs=args.jobs)
        name = "sweep.csv"
        header = ["thickness_lam", "layers", "atoms", "spacing_lam", "feasible", "note",
                  "mean_db", "min_db", "max_db", "runs"]
        rows = [(c.thickness_lam, c.layers, c.atoms, c.spacing_lam, c.feasible,
                 c.note, f"{c.mean_db:.6g}", f"{c.min_db:.6g}",
                 f"{c.max_db:.6g}", c.runs) for c in cells]
    else:
        lam = geom.wavelength
        rows_obj = experiments.receiver_study(
            geom, train_cfg,
            u_x=tuple(v * lam for v in sw["u_x"]),
            rotation=tuple(math.radians(v) for v in sw["rotation_deg"]),
            layers=sw["layers"], runs=sw["runs"], seed=sw["seed"], jobs=args.jobs)
        name = "receiver.csv"
        header = ["parameter", "value", "mean_db", "min_db", "max_db", "runs"]
        rows = [(r.parameter, f"{r.value:.10g}", f"{r.mean_db:.6g}",
                 f"{r.min_db:.6g}", f"{r.max_db:.6g}", r.runs) for r in rows_obj]
    path = _emit(args, config, "sweep", name, header, rows, geom, [sw["seed"]],
                 {"mode": sw["mode"], "cells": len(rows)})
    print(f"sweep: {len(rows)} cells -> {path}")
    return 0


def _jobs(text):
    """The ``--jobs`` value: a worker count of at least 1; anything else is a usage error."""
    import argparse  # already loaded by the parser that calls this
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


_OPTIONS = {
    "config": (("--config", "-c"), {"required": True, "help": "YAML config file"}),
    "outdir": (("--outdir", "-o"), {"default": None,
                                    "help": "output directory (or set SIMDOA_OUTDIR)"}),
    "jobs": (("--jobs", "-j"), {"type": _jobs, "default": os.cpu_count() or 1,
                                "help": "worker processes for experiment queues"}),
    "stack": (("--stack",), {"default": None, "help": "phase-stack file from a previous fit"}),
}
# Each subcommand's function, the _OPTIONS it reads (it is offered no other), the config
# sections it needs and the work caps it obeys; 'sweep' obeys them on each cell it fits.
_RUN_SECTIONS = ("geometry", "protocol", "source")
_COMMANDS = {
    "fit": (_cmd_fit, ("config", "outdir"), ("geometry", "train"), _FIT),
    "spectrum": (_cmd_spectrum, ("config", "outdir", "stack"), _RUN_SECTIONS, (_LATTICE,)),
    "estimate": (_cmd_estimate, ("config", "outdir", "stack"), _RUN_SECTIONS, (_LATTICE,)),
    "bound": (_cmd_bound, ("config", "outdir", "stack"), (*_RUN_SECTIONS, "bound"), (_LATTICE,)),
    "montecarlo": (_cmd_montecarlo, ("config", "outdir", "jobs", "stack"),
                   ("montecarlo", "geometry", "protocol"), (_LATTICE, _MC_CELLS)),
    "sweep": (_cmd_sweep, ("config", "outdir", "jobs"), ("sweep", "geometry", "train"), _FIT),
}


def build_parser():
    import argparse  # only a command-line run loads it
    parser = argparse.ArgumentParser(
        prog="simdoa",
        description="Stacked-metasurface DFT fitting and energy-peak"
                    " direction estimation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options, _, _) in _COMMANDS.items():
        p = sub.add_parser(name)
        for option in options:
            flags, kwargs = _OPTIONS[option]
            p.add_argument(*flags, **kwargs)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    command, _, needs, rows = _COMMANDS[args.command]
    try:
        config = parse_config(args.config)
        for name in needs:
            if name not in config:
                raise ConfigError(f"'{args.command}' needs a '{name}' section in the config")
        _check_work(config, rows, "sweep" in needs)
        return command(args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the allocation; a bare one has none
        print(f"error: out of memory {exc}".rstrip(), file=sys.stderr)
        return 1
    except (IOError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
