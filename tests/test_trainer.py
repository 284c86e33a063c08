import math
import re

import numpy as np
import pytest

from simdoa.geometry import SimGeometry, build_propagation_matrices, dft_matrix
from simdoa.trainer import (
    TrainConfig,
    TrainingDiverged,
    finite_diff_gradient,
    gradient,
    layer_inputs,
    train,
    train_restarts,
)
from simdoa import trainer
from simdoa.wavemodel import (PhaseStack, fitting_loss, forward_response, optimal_scale,
                              random_stack)

LAM = 0.005


def make_props(layers=2, m_side=3, n_side=2):
    geom = SimGeometry(
        wavelength=LAM,
        n_x=n_side, n_y=n_side, d_x=LAM / 2, d_y=LAM / 2,
        m_x=m_side, m_y=m_side, s_x=LAM / 2, s_y=LAM / 2,
        layers=layers, thickness=0.005 * layers,
    )
    return build_propagation_matrices(geom)


# ---------------------------------------------------------------- layer inputs

def test_layer_inputs_first_entry_is_w0():
    props = make_props(layers=3)
    stack = random_stack(3, 9, np.random.default_rng(0))
    q = layer_inputs(props, stack)
    assert len(q) == 3
    assert np.array_equal(q[0], props.w0)


def test_layer_inputs_match_naive_cascade():
    props = make_props(layers=3)
    stack = random_stack(3, 9, np.random.default_rng(1))
    q = layer_inputs(props, stack)
    for n in range(props.w0.shape[1]):
        field = props.w0[:, n]
        for l in range(1, 3):
            field = props.w_inner[l - 1] @ (stack.transmissions()[l - 1] * field)
            assert np.allclose(q[l][:, n], field, rtol=1e-12)


def test_layer_inputs_identity_first_layer():
    # with layer 1 phases at zero the second layer sees plain W1 W0
    props = make_props(layers=2)
    stack = PhaseStack([np.zeros(9), np.random.default_rng(2).uniform(0, 2 * math.pi, 9)])
    q = layer_inputs(props, stack)
    assert np.allclose(q[1], props.w_inner[0] @ props.w0, rtol=1e-12)


# ---------------------------------------------- oracles: the suffix-product loop

def _suffix_products(props, stack):
    """b[l-1] = W_L Y_L ... Y_{l+1} W_l, the cascade downstream of layer l."""
    b = [None] * stack.layers
    b[stack.layers - 1] = props.w_last
    for l in range(stack.layers - 1, 0, -1):
        b[l - 1] = b[l] @ (stack.transmissions()[l][:, None] * props.w_inner[l - 1])
    return b


def suffix_gradient(props, stack, f, beta):
    """The gradient from explicit downstream products, one M x M product per layer."""
    q = layer_inputs(props, stack)
    b = _suffix_products(props, stack)
    g = b[stack.layers - 1] @ (stack.transmissions()[-1][:, None] * q[-1])
    err = beta * g - f
    grads = []
    for l in range(1, stack.layers + 1):
        c = b[l - 1].conj().T @ err
        s = np.sum(np.conj(q[l - 1]) * c, axis=1)
        grads.append(2.0 * np.imag(np.conj(beta) * np.conj(stack.transmissions()[l - 1]) * s))
    return grads


def suffix_loss_history(props, f, config):
    """``train``'s loss history with a forward_response and a suffix gradient per step."""
    geom = props.geometry
    stack = random_stack(geom.layers, geom.m, np.random.default_rng(config.seed))
    g = forward_response(props, stack)
    beta = optimal_scale(g, f)
    history = [fitting_loss(g, f, beta)[0]]
    eta = config.eta0
    for _ in range(config.max_iters):
        grads = suffix_gradient(props, stack, f, beta)
        for l in range(stack.layers):
            peak = np.abs(grads[l]).max()
            if peak == 0.0:
                continue
            step = (eta * np.pi / peak) * grads[l]
            stack.xi[l] = np.mod(stack.xi[l] - step, 2.0 * np.pi)
        eta *= config.zeta
        g = forward_response(props, stack)
        beta = optimal_scale(g, f)
        history.append(fitting_loss(g, f, beta)[0])
    return history


# -------------------------------------------------------------------- gradient

def test_adjoint_gradient_matches_suffix_products():
    rng = np.random.default_rng(13)
    for layers in (1, 1, 2, 3, 4, 5):
        n_side = int(rng.integers(1, 3))
        m_side = int(rng.integers(2, 5))
        props = make_props(layers=layers, m_side=m_side, n_side=n_side)
        stack = random_stack(layers, m_side * m_side, rng)
        f = dft_matrix(n_side, n_side).matrix
        beta = optimal_scale(forward_response(props, stack), f) * (0.9 - 0.2j)
        for a, b in zip(gradient(props, stack, f, beta),
                        suffix_gradient(props, stack, f, beta), strict=True):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_last_layer_input_gives_forward_response_bit_for_bit():
    for layers in (1, 2, 4):
        props = make_props(layers=layers)
        stack = random_stack(layers, 9, np.random.default_rng(layers))
        q = layer_inputs(props, stack)
        g = props.w_last @ (stack.transmissions()[-1][:, None] * q[-1])
        assert np.array_equal(g, forward_response(props, stack))



def test_gradient_zero_at_exact_fit():
    # when f equals beta * G the residual vanishes and so must the gradient
    props = make_props(layers=2)
    stack = random_stack(2, 9, np.random.default_rng(3))
    g = forward_response(props, stack)
    beta = 0.3 - 1.1j
    grads = gradient(props, stack, beta * g, beta)
    for gl in grads:
        assert np.max(np.abs(gl)) < 1e-20 * np.max(np.abs(g))


def test_gradient_single_atom_closed_form():
    # scalar chain: G = w_last e^{j xi} w0, d|beta G - f|^2/dxi = 2 Im(conj(beta G)(beta G - f))
    geom = SimGeometry(
        wavelength=LAM, n_x=1, n_y=1, d_x=LAM / 2, d_y=LAM / 2,
        m_x=1, m_y=1, s_x=LAM / 2, s_y=LAM / 2, layers=1, thickness=0.004,
    )
    props = build_propagation_matrices(geom)
    xi = 0.73
    stack = PhaseStack([np.array([xi])])
    beta = 1.4 + 0.2j
    f = np.array([[0.8 - 0.5j]])
    big_g = props.w_last[0, 0] * np.exp(1j * xi) * props.w0[0, 0]
    expected = 2.0 * np.imag(np.conj(beta * big_g) * (beta * big_g - f[0, 0]))
    grads = gradient(props, stack, f, beta)
    assert grads[0][0] == pytest.approx(expected, rel=1e-12)


def test_gradient_matches_finite_differences():
    # off-optimum beta keeps the residual nonzero on degenerate sizes
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(12):
        n_side = int(rng.integers(1, 3))
        m_side = int(rng.integers(2, 4))
        layers = int(rng.integers(1, 4))
        props = make_props(layers=layers, m_side=m_side, n_side=n_side)
        stack = random_stack(layers, m_side * m_side, rng)
        f = dft_matrix(n_side, n_side).matrix
        beta = optimal_scale(forward_response(props, stack), f) * (1.1 + 0.3j)
        ga = gradient(props, stack, f, beta)
        gf = finite_diff_gradient(props, stack, f, beta)
        for a, b in zip(ga, gf):
            scale = max(np.max(np.abs(b)), 1e-300)
            worst = max(worst, np.max(np.abs(a - b)) / scale)
            num = np.vdot(a, b).real
            den = np.linalg.norm(a) * np.linalg.norm(b)
            if den > 0:
                assert num / den > 1.0 - 1e-10
    assert worst <= 1e-6


def test_gradient_matches_finite_differences_on_twenty_random_instances():
    # the 20 instances of the former `simdoa gradcheck` subcommand, at its 1e-6 bound
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        n_side = int(rng.integers(1, 3))
        m_side = int(rng.integers(2, 4))
        layers = int(rng.integers(1, 4))
        geom = SimGeometry(
            wavelength=LAM, n_x=n_side, n_y=n_side, d_x=LAM / 2, d_y=LAM / 2,
            m_x=m_side, m_y=m_side, s_x=LAM / 2, s_y=LAM / 2,
            layers=layers, thickness=3 * LAM * layers)
        props = build_propagation_matrices(geom)
        stack = random_stack(layers, geom.m, rng)
        f = dft_matrix(n_side, n_side).matrix
        # off-optimum beta keeps the residual nonzero on degenerate sizes
        beta = optimal_scale(forward_response(props, stack), f) * (1.1 + 0.3j)
        for ga, gf in zip(gradient(props, stack, f, beta),
                          finite_diff_gradient(props, stack, f, beta), strict=True):
            scale = max(float(np.max(np.abs(gf))), 1e-300)
            worst = max(worst, float(np.max(np.abs(ga - gf))) / scale)
    assert worst <= 1e-6


def test_gradient_accepts_precomputed_inputs():
    props = make_props(layers=3)
    stack = random_stack(3, 9, np.random.default_rng(5))
    f = dft_matrix(2, 2).matrix
    q = layer_inputs(props, stack)
    a = gradient(props, stack, f, 1.0 + 0j)
    b = gradient(props, stack, f, 1.0 + 0j, q=q)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_gradient_leaves_the_passed_inputs_unchanged():
    # a caller may go on using q and t after the adjoint sweep
    props = make_props(layers=3)
    stack = random_stack(3, 9, np.random.default_rng(5))
    f = dft_matrix(2, 2).matrix
    t = stack.transmissions()
    q = layer_inputs(props, stack, t)
    q_before, t_before = q.copy(), t.copy()
    gradient(props, stack, f, 0.7 - 0.2j, q=q, t=t)
    assert np.array_equal(q, q_before)
    assert np.array_equal(t, t_before)
    g = props.w_last @ (t[-1][:, None] * q[-1])
    assert np.array_equal(g, forward_response(props, stack))


# -------------------------------------------------------------------- training

def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(max_iters=0)
    with pytest.raises(ValueError):
        TrainConfig(eta0=0.0)
    with pytest.raises(ValueError):
        TrainConfig(zeta=0.0)
    with pytest.raises(ValueError):
        TrainConfig(zeta=1.2)
    with pytest.raises(ValueError):
        TrainConfig(rel_tolerance=-1e-3)
    for bad in ({"eta0": math.nan}, {"eta0": math.inf}, {"eta0": 2.5}, {"eta0": 1.0e308},
                {"rel_tolerance": math.nan}):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    with pytest.raises(ValueError):
        TrainConfig(restarts=0)
    assert TrainConfig(eta0=2.0).eta0 == 2.0  # one full turn of eta0*pi rad is the limit


def test_single_iteration_history_length():
    props = make_props(layers=2)
    f = dft_matrix(2, 2).matrix
    report = train(props, f, TrainConfig(max_iters=1, seed=7))
    assert len(report.loss_history) == 2
    assert len(report.loss_db_history) == 2
    assert report.iterations == 1
    assert report.stop_reason == "max_iters"


def test_best_iterate_never_worse_than_initial():
    props = make_props(layers=2)
    f = dft_matrix(2, 2).matrix
    report = train(props, f, TrainConfig(max_iters=30, seed=8))
    assert report.best_loss <= report.loss_history[0]
    assert report.best_loss == min(report.loss_history)
    assert report.loss_history[report.best_iteration] == report.best_loss


def test_best_iterate_is_reproducible_from_stack():
    props = make_props(layers=2)
    f = dft_matrix(2, 2).matrix
    report = train(props, f, TrainConfig(max_iters=25, seed=9))
    g = forward_response(props, report.stack)
    resid = report.beta * g - f
    assert np.linalg.norm(resid) ** 2 == pytest.approx(report.best_loss, rel=1e-9)


def test_training_is_deterministic():
    props = make_props(layers=2)
    f = dft_matrix(2, 2).matrix
    a = train(props, f, TrainConfig(max_iters=20, seed=10))
    b = train(props, f, TrainConfig(max_iters=20, seed=10))
    assert a.loss_history == b.loss_history
    assert a.beta == b.beta
    for xa, xb in zip(a.stack.xi, b.stack.xi):
        assert np.array_equal(xa, xb)


def test_early_stopping_on_relative_tolerance():
    props = make_props(layers=2)
    f = dft_matrix(2, 2).matrix
    report = train(props, f, TrainConfig(max_iters=50, rel_tolerance=1.0, seed=11))
    assert report.stop_reason == "converged"
    assert report.iterations < 50


def test_divergence_carries_history():
    props = make_props(layers=1)
    f = np.full((4, 4), np.inf)
    with pytest.raises(TrainingDiverged) as err:
        train(props, f, TrainConfig(max_iters=5, seed=12))
    assert len(err.value.loss_history) >= 1


@pytest.mark.parametrize("bad_call,message", [(1, "initial loss is not finite"),
                                               (4, "loss diverged at iteration 3")])
def test_divergence_names_the_iterate_and_carries_its_loss(monkeypatch, bad_call, message):
    # the loss of iterate bad_call - 1 is NaN: the refusal names it and the history ends there
    calls = []

    def failing_loss(g, f, beta):
        calls.append(None)
        loss, db = fitting_loss(g, f, beta)
        return (math.nan, db) if len(calls) == bad_call else (loss, db)

    monkeypatch.setattr(trainer, "fitting_loss", failing_loss)
    with pytest.raises(TrainingDiverged, match=f"^{message}$") as err:
        train(make_props(layers=2), dft_matrix(2, 2).matrix, TrainConfig(max_iters=10, seed=12))
    assert len(err.value.loss_history) == bad_call
    assert math.isnan(err.value.loss_history[-1])
    assert all(math.isfinite(loss) for loss in err.value.loss_history[:-1])


def test_converged_run_counts_its_iterates():
    props = make_props(layers=3)
    f = dft_matrix(2, 2).matrix
    report = train(props, f, TrainConfig(max_iters=60, rel_tolerance=1e-2, seed=3))
    assert report.stop_reason == "converged"
    assert 1 <= report.iterations < 60
    assert len(report.loss_history) == len(report.loss_db_history) == report.iterations + 1
    assert report.best_iteration <= report.iterations
    prev, last = report.loss_history[-2:]
    assert (prev - last) / prev < 1e-2
    assert all((a - b) / a >= 1e-2 for a, b in zip(report.loss_history[:-2],
                                                     report.loss_history[1:-1]))


def test_reference_geometry_reaches_deep_fit():
    # the (2,2) target is essentially exactly representable; even a short
    # run should pass -20 dB and keep the best iterate at the minimum
    geom = SimGeometry(
        wavelength=LAM, n_x=2, n_y=2, d_x=LAM / 2, d_y=LAM / 2,
        m_x=11, m_y=11, s_x=LAM / 2, s_y=LAM / 2, layers=7, thickness=9 * LAM,
    )
    props = build_propagation_matrices(geom)
    f = dft_matrix(2, 2).matrix
    report = train(props, f, TrainConfig(max_iters=60, seed=0))
    assert report.best_db < -20.0


def test_loss_history_matches_suffix_loop():
    # this geometry stays far above round-off, so the two loops agree to the last
    # few bits at every iterate; near the float64 floor rounding noise decides
    props = make_props(layers=3, m_side=3, n_side=2)
    f = dft_matrix(2, 2).matrix
    for seed in (0, 1):
        config = TrainConfig(max_iters=40, zeta=0.95, seed=seed)
        report = train(props, f, config)
        assert min(report.loss_db_history) > -100.0
        expected = suffix_loss_history(props, f, config)
        assert np.allclose(report.loss_history, expected, rtol=1e-9, atol=0.0)


def test_whole_stack_step_equals_the_per_layer_loop_bit_for_bit():
    # the reference takes each layer's sup-norm step on its own, as train once did
    props = make_props(layers=4, m_side=3, n_side=2)
    f = dft_matrix(2, 2).matrix
    config = TrainConfig(max_iters=25, zeta=0.9, seed=16)
    stack = random_stack(4, 9, np.random.default_rng(config.seed))
    g = forward_response(props, stack)
    beta = optimal_scale(g, f)
    history, eta = [fitting_loss(g, f, beta)[0]], config.eta0
    for _ in range(config.max_iters):
        grads = gradient(props, stack, f, beta)
        for l, gl in enumerate(grads):
            peak = np.abs(gl).max()
            if peak > 0.0:
                stack.xi[l] = np.mod(stack.xi[l] - (eta * np.pi / peak) * gl, 2.0 * np.pi)
        eta *= config.zeta
        g = forward_response(props, stack)
        beta = optimal_scale(g, f)
        history.append(fitting_loss(g, f, beta)[0])
    report = train(props, f, config)
    assert report.loss_history == history
    assert report.best_iteration == config.max_iters  # so the final stacks are comparable
    assert np.array_equal(report.stack.xi.view(np.int64), stack.xi.view(np.int64))


def test_one_forward_pass_per_iteration(monkeypatch):
    calls = {"layer_inputs": 0, "forward_response": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(trainer, name, counted(name, getattr(trainer, name)))
    props = make_props(layers=3)
    train(props, dft_matrix(2, 2).matrix, TrainConfig(max_iters=6, seed=14))
    # the initial iterate: forward_response, then the first gradient's own cascade
    assert calls == {"layer_inputs": 6 + 1, "forward_response": 1}


def test_layers_without_a_usable_gradient_keep_their_phases(monkeypatch):
    # one step over the whole (L, M) stack: a zero or NaN gradient row is left alone
    seen = []

    def gradient_with_dead_rows(*args, **kwargs):
        grads = gradient(*args, **kwargs)
        grads[0] = 0.0
        grads[2, 4] = math.nan
        return grads

    def recording_inputs(props, stack, *args, **kwargs):
        seen.append(stack.xi.copy())
        return layer_inputs(props, stack, *args, **kwargs)

    monkeypatch.setattr(trainer, "gradient", gradient_with_dead_rows)
    monkeypatch.setattr(trainer, "layer_inputs", recording_inputs)
    train(make_props(layers=3), dft_matrix(2, 2).matrix, TrainConfig(max_iters=3, seed=15))
    first, *later = seen
    for xi in later:
        assert np.array_equal(xi[[0, 2]], first[[0, 2]])
        assert not np.array_equal(xi[1], first[1])


@pytest.mark.parametrize("value,message", [(math.inf, "must be finite, got inf"),
                                           (math.nan, "must be >= 0, got nan"),
                                           (-1e-3, "must be >= 0, got -0.001")])
def test_rel_tolerance_refusals_name_it(value, message):
    # inf was accepted, and every fit then stopped as converged at iteration 1
    with pytest.raises(ValueError, match=f"^rel_tolerance {re.escape(message)}$"):
        TrainConfig(rel_tolerance=value)


def test_negative_seed_is_refused():
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(seed=-1)


@pytest.mark.parametrize("key", ["seed", "max_iters", "restarts"])
@pytest.mark.parametrize("bad", [True, np.bool_(True), 1.5, 2.0, "3"])
def test_counts_and_seed_must_be_integers(key, bad):
    # True ran silently as 1; 1.5 passed and failed later in numpy or range
    with pytest.raises(ValueError, match=f"^{key} must be an integer"):
        TrainConfig(**{key: bad})


def test_numpy_integers_are_accepted():
    config = TrainConfig(seed=np.int64(3), max_iters=np.int32(2), restarts=np.uint8(1))
    assert (config.seed, config.max_iters, config.restarts) == (3, 2, 1)


def test_restarts_cover_distinct_seeds():
    props = make_props(layers=2)
    f = dft_matrix(2, 2).matrix
    reports = train_restarts(props, f, TrainConfig(max_iters=5, seed=100, restarts=3))
    assert [r.seed for r in reports] == [100, 101, 102]
    solo = train(props, f, TrainConfig(max_iters=5, seed=101))
    assert reports[1].loss_history == solo.loss_history


def test_restart_reports_vary_with_seed():
    props = make_props(layers=2)
    f = dft_matrix(2, 2).matrix
    reports = train_restarts(props, f, TrainConfig(max_iters=5, seed=200, restarts=2))
    assert reports[0].loss_history[0] != reports[1].loss_history[0]
