"""Monte Carlo trial streams seeded in bulk, as numpy would seed each one.

Trial ``t`` of SNR point ``i`` draws from ``default_rng(SeedSequence(seed,
spawn_key=(i, t)))``. Building those objects per trial costs more than a
small trial's work, so this module reproduces their derivation: numpy
mixes the ``SeedSequence`` entropy pool once per point, a block's trial
words are hashed over uint32 arrays, and PCG64's seeding step turns each
result into the state that ``default_rng`` would have set. The tests
compare it with numpy's own classes.
"""

import numpy as np

# numpy's SeedSequence (pool of four 32-bit words) and PCG64 seeding constants
_MASK32, _MASK128 = 2 ** 32 - 1, 2 ** 128 - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _chain(const, mult, count):
    """``const`` and the ``count`` hash constants that follow it, each the last times ``mult``."""
    consts = [const]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _hashed(value, xor, mult):
    """SeedSequence's hash of a word by two chain constants; Python ints or uint32 arrays."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mixed(x, y):
    """SeedSequence's mix of a pool word ``x`` with a hashed word ``y``."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


def _words(n):
    """The 32-bit words of a non-negative int, least significant first, as SeedSequence splits it."""
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def point_pool(seed, snr_index):
    """Pool of ``SeedSequence(seed, spawn_key=(snr_index, trial))`` before the trial's words.

    Returns numpy's ``SeedSequence(seed, spawn_key=(snr_index,)).pool`` and the hash
    constant that the trial's words start from (``trial_states``): the mix hashes
    16 + 4 (words - 4) times, the seed counting at least four words, as numpy pads it
    ahead of a spawn key.
    """
    words = max(4, len(_words(int(seed)))) + len(_words(snr_index))
    pool = np.random.SeedSequence(seed, spawn_key=(snr_index,)).pool
    return tuple(pool.tolist()), _chain(_INIT_A, _MULT_A, 16 + 4 * (words - 4))[-1]


# SeedSequence.generate_state's eight hash constants, one per 32-bit output word
_STATE_CONSTS = np.array(_chain(_INIT_B, _MULT_B, 8), dtype=np.uint32)[:, None]


def trial_states(stream, trials):
    """PCG64 state dicts of ``default_rng(SeedSequence(seed, spawn_key=(snr_index, t)))``.

    ``stream`` is ``point_pool(seed, snr_index)``; ``trials`` holds
    indices below 2**64. Each trial's words are mixed into the pool over
    (4, K) uint32 arrays (a second word only for indices of 2**32 or more),
    ``generate_state(4, uint64)`` runs on those arrays, and PCG64's seeding
    step, inc = 2 initseq + 1 and state = (inc + initstate) MULT + inc mod
    2**128, runs in Python ints.
    """
    pool, const = stream
    t = np.asarray(trials, dtype=np.uint64)
    a = np.array(_chain(const, _MULT_A, 8), dtype=np.uint32)[:, None]
    pool = np.array(pool, dtype=np.uint32)[:, None]
    pool = _mixed(pool, _hashed((t & _MASK32).astype(np.uint32), a[:4], a[1:5]))
    high = (t >> 32).astype(np.uint32)
    if high.any():
        pool = np.where(high > 0, _mixed(pool, _hashed(high, a[4:8], a[5:])), pool)
    # generate_state cycles through the pool twice
    out = _hashed(np.concatenate((pool, pool)), _STATE_CONSTS[:-1], _STATE_CONSTS[1:])
    out = out.astype(np.uint64)
    states = []
    for s0, s1, s2, s3 in zip(*(out[0::2] | out[1::2] << 32).tolist()):
        inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        state = (((s0 << 64 | s1) + inc) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states
