"""The command line's contract over every config key and stack file, drawn from its tables.

Each key of the config tables takes values at and across its checks: 0, +-1, +-inf, NaN,
huge and tiny numbers, the wrong type, or no value at all. Every subcommand that reads the
key's section then runs in-process with warnings as errors, on a config small enough to run
in milliseconds. It must exit 0, 1 or 2, with no traceback; an exit 2 names a dotted key of
the tables. Stack files cut short or with forged headers must exit 0 or 1 the same way.
"""

import contextlib
import dataclasses
import io
import math
import re
import struct
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from simdoa import cli
from simdoa.cli import main, save_stack
from simdoa.estimator import ProtocolConfig
from simdoa.trainer import TrainConfig
from simdoa.wavemodel import random_stack

# One config that every subcommand runs in milliseconds; the sweep section is set per draw.
BASE = {
    "geometry": {"n_x": 2, "n_y": 2, "m_x": 2, "m_y": 2, "layers": 2, "thickness": 2.0},
    "train": {"max_iters": 2},
    "protocol": {"t_x": 2, "t_y": 2},
    "source": {"psi_x": 0.1, "psi_y": 0.2},
    "estimate": {"ideal": True},
    "spectrum": {"ideal": True},
    "bound": {"snr_db": [10]},
    "montecarlo": {"trials": 2, "snr_db": [10], "ideal": True},
}
SWEEPS = {
    "ablation": {"mode": "ablation", "thickness": [2.0], "layers": [2], "atoms": [4],
                 "spacing": [0.5], "runs": 1},
    "receiver": {"mode": "receiver", "rotation_deg": [10.0], "runs": 1},
}
# each table's keys and kinds, the sweep's per mode
TABLES = {
    "geometry": cli._GEOMETRY,
    "source": cli._SOURCE,
    "estimate": cli._RUN,
    "spectrum": cli._RUN,
    "bound": cli._BOUND,
    "montecarlo": cli._MONTECARLO,
    "train": {f.name: (f.type,) for f in dataclasses.fields(TrainConfig)},
    "protocol": {f.name: (f.type,) for f in dataclasses.fields(ProtocolConfig)},
    **{f"sweep:{mode}": {**cli._SWEEP_MODE, **table} for mode, table in cli._SWEEP.items()},
}
# the subcommands that read a section: those that need it, and the one named after it
READERS = {section: [name for name, (_, _, needs, _) in cli._COMMANDS.items()
                     if section in needs or section == name]
           for section in {table.partition(":")[0] for table in TABLES}}
MISSING = object()
NUMBERS = [0, 1, -1, 0.5, 3082, 10 ** 30, 10 ** 400, 1e308, 5e-324, -1e308,
           math.inf, -math.inf, math.nan]
WRONG = ["x", True, None, [1], {"x": 1}]
DOTTED = re.compile(r"'(\w+)\.(\w+)")


def values_of(kind):
    """Boundary values for a table kind: numbers, choices, lists of them, and wrong types."""
    if isinstance(kind, list):
        return [[v] for v in values_of(kind[0])] + [[], 1, "x"]
    if isinstance(kind, tuple):
        return [*kind, "bogus", 1, None]
    if kind is bool:
        return [True, False, 0, 1, "yes", None]
    # a float key, an SNR among them, reads the string 'inf' as a float
    strings = ["inf", "-inf"] if kind is float else []
    return NUMBERS + [float(v) for v in (0, 1, -1)] + strings + WRONG


@st.composite
def mutated_configs(draw):
    """(config, section) with one or two keys of one section set to boundary values or dropped."""
    table = draw(st.sampled_from(sorted(TABLES)))
    section, _, mode = table.partition(":")
    doc = {**BASE, "sweep": SWEEPS[draw(st.sampled_from(sorted(SWEEPS)))]}
    if mode:
        doc["sweep"] = SWEEPS[mode]
    body = dict(doc[section])
    for key in draw(st.lists(st.sampled_from(sorted(TABLES[table])), min_size=1, max_size=2,
                             unique=True)):
        value = draw(st.sampled_from([MISSING, *values_of(TABLES[table][key][0])]))
        if value is MISSING:
            body.pop(key, None)
        else:
            body[key] = value
    return {**doc, section: body}, section


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    save_stack(path / "stack.bin", random_stack(2, 4, np.random.default_rng(0)))
    return path


def run(workdir, command, doc, stack=None):
    """(exit code, stderr) of ``command`` on ``doc`` in-process, any warning raised as an error.

    ``doc`` is a config mapping or the file's text; 'bound' reads the fitted stack file unless
    ``stack`` names another, which the other subcommands then read too.
    """
    config = workdir / "c.yaml"
    with open(config, "w") as fh:
        yaml.safe_dump(doc, fh) if isinstance(doc, dict) else fh.write(doc)
    if command == "bound":
        stack = stack or workdir / "stack.bin"
    options = ["-j", "1"] if command in ("montecarlo", "sweep") else []
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([command, "--config", str(config), "--outdir", str(workdir / "run"),
                     *options, *(["--stack", str(stack)] if stack else [])])
    return code, err.getvalue()


def check_exit(code, err):
    assert code in (0, 1, 2), (code, err)
    assert (code == 0) == (err == ""), (code, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, err
    if code == 2:
        named = [(s, k) for s, k in DOTTED.findall(err)
                 if any(k in table for name, table in TABLES.items() if name.startswith(s))]
        assert named, f"an exit 2 that names no dotted key: {err}"
    if code == 1:
        assert err.startswith("error: "), err


def case(section, **values):
    """An explicit draw: BASE with ``values`` set in ``section``, and the receiver sweep."""
    return {**BASE, "sweep": SWEEPS["receiver"], section: {**BASE[section], **values}}, section


@settings(max_examples=250, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_configs())
# lengths that overflow the propagation build: an OverflowError traceback in fit and sweep
@example(case=case("geometry", wavelength_mm=1e300))
# refusals that the draws above may miss: a length of 0 m, a fit cap, a Monte Carlo input
# spacing, a float beyond range, a zero symbol and a bound whose cell powers overflow
@example(case=case("geometry", d_x=5e-324))
@example(case=case("geometry", m_x=65, m_y=32))
@example(case=case("geometry", d_y=1.0))
@example(case=case("bound", snr_db=[10 ** 400]))
@example(case=case("source", s_real=0))
@example(case=case("source", s_imag=1e308))
def test_every_key_exits_0_1_or_2_naming_its_key(workdir, case):
    doc, section = case
    for command in READERS[section]:
        check_exit(*run(workdir, command, doc))


@pytest.mark.parametrize("doc,command,message", [
    ("", "fit", "config error: 'fit' needs a 'geometry' section in the config\n"),
    ("[1, 2]\n", "estimate", "top level must be a mapping\n"),
    ("geometry: [\n", "spectrum", "config error: malformed YAML in "),
    ({**BASE, "train": [1]}, "fit", "config error: section 'train' must be a mapping\n"),
    ({**BASE, "extra": {}}, "bound", "config error: unknown section 'extra' (allowed: "),
    ({k: v for k, v in BASE.items() if k != "protocol"}, "montecarlo",
     "config error: 'montecarlo' needs a 'protocol' section in the config\n"),
    ({k: v for k, v in BASE.items() if k != "source"}, "bound",
     "config error: 'bound' needs a 'source' section in the config\n"),
    ({k: v for k, v in BASE.items() if k != "estimate"}, "estimate",
     "config error: 'estimate' needs --stack FILE or 'estimate.ideal: true'\n"),
], ids=["empty-file", "top-level-list", "bad-yaml", "section-list", "unknown-section",
        "no-protocol", "no-source", "no-stack"])
def test_section_level_refusals_exit_2(workdir, doc, command, message):
    code, err = run(workdir, command, doc)
    assert code == 2
    assert message in err


def stack_bytes(draw, good):
    """``good`` cut short, or with a forged magic, header field or phase."""
    how = draw(st.sampled_from(["cut", "magic", "header", "phase"]))
    if how == "cut":
        return good[:draw(st.integers(0, len(good) - 1))]
    if how == "magic":
        return draw(st.binary(min_size=6, max_size=6)) + good[6:]
    if how == "header":
        field = draw(st.integers(0, 2))
        value = draw(st.sampled_from([0, 1, 2, 4, 5, 2 ** 31, 2 ** 32 - 1]))
        return good[:6 + 4 * field] + struct.pack("<I", value) + good[10 + 4 * field:]
    phase = draw(st.sampled_from([math.nan, math.inf, -math.inf, 1e308, 0.0]))
    at = 18 + 8 * draw(st.integers(0, 7))
    return good[:at] + struct.pack("<d", phase) + good[at + 8:]


@settings(max_examples=60, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cut_and_forged_stack_files_exit_0_or_1(workdir, data):
    with open(workdir / "stack.bin", "rb") as fh:
        good = fh.read()
    forged = workdir / "forged.bin"
    with open(forged, "wb") as fh:
        fh.write(stack_bytes(data.draw, good))
    command = data.draw(st.sampled_from(["bound", "estimate"]))
    code, err = run(workdir, command, {**BASE, "estimate": {}}, stack=forged)
    check_exit(code, err)
    assert code != 2, err
    if code == 1:
        assert str(forged) in err, err
