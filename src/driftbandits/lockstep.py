"""The lockstep block engine: many replications of one UCB1, DUCB, SWUCB or
eps-greedy config at once, bit-identical rep by rep to the sample-mean step
kernel of ``incentive``.  Of its two kernels, only Thompson's has no lockstep
engine: how many words its step draws depends on its posterior.

``run_block`` keeps each statistic as an array with one row per lane and
advances every lane with one Python loop over the steps.  A lane is a
(replication, restart batch) pair: a restart batch starts from a fresh
policy, and what a step draws depends only on the stream and the step's
place in its batch, so where each batch starts in its rep's stream is known
before any step runs, and every lane can step at once.  Without restarts the
lanes are the reps.

* A UCB-family step draws exactly one uniform, in the round-robin too, so
  batch b of rep i reads exactly doubles ``start_b - 1 .. stop_b - 1`` of
  rep i's stream: the ``random()`` doubles of its ``random.Random``, read
  from it a chunk at a time (``_doubles``).
* Every lane has taken the same number of local steps, so a step's count
  term is one scalar, read from the kernel's table of a fresh policy's
  counts (``incentive._count_terms``): the index's log term, the one
  transcendental term, built with ``math.log`` (numpy's ``log`` is not
  libm's), or eps-greedy's explore probability.
* An eps-greedy step draws an explore test (only once the round-robin is
  over and while its probability is below 1), an explored arm (only on
  exploring) and its reward uniform; ``_eps_draws`` makes these calls on
  each rep's own ``random.Random`` in the kernel's order, with the
  probabilities of the table, and the step takes the greedy arm
  (``argmax``, the first maximum) wherever it does not explore.
* The rest is + - * / and sqrt, which numpy rounds as Python does, and
  ``argmax`` takes the first maximum, as the kernel's strict ``>`` does.
* A lane stores only its arm and its compensation per step; a second pass
  rebuilds the kernel's per-step increments in time order, rep by rep, and
  sums them with sequential ``add.accumulate`` from the carried totals.
* Each chunk's curves are folded over the reps as soon as it is summed, by
  ``add.reduce`` over a leading rep axis, which adds one rep's rows after
  another in rep order (numpy's pairwise summation only runs along the
  innermost axis).

The step checks run once per chunk of steps and are stricter than the
kernel's (any non-finite compensation fails too): the caller reruns a failed
block on the kernel, which raises or finishes exactly as always.
"""

from __future__ import annotations

from math import inf

import numpy as np

from .incentive import DriftModel, _count_terms
from .policy import _CLASSES, SampleMeanPolicy

__all__ = ["LOCKSTEP_KINDS", "capacity", "run_block"]

LOCKSTEP_KINDS = tuple(kind for kind, cls in _CLASSES.items() if issubclass(cls, SampleMeanPolicy))
# A block runs in lockstep from LOCKSTEP_MIN lanes (README "Timing the
# engines": the crossovers, measured on 2 cores), while its lanes store at
# most LANE_BYTES.
LOCKSTEP_MIN = 20
LANE_BYTES = 8 * 2**20
# Steps at a time, over all reps: without restarts 2^14 uniforms are drawn,
# stepped and summed at a time; with restarts the draws and the second pass
# go T / 16 steps at a time, and at most 2^14 lane-steps.  The T / 16 cap
# keeps a small block's chunk buffers small: on 2 cores, with 2^14 lane-steps
# alone, drift-restart's 8-rep blocks raised its peak_rss_mb from 39.1 to
# 40.6 MB in 5 of 5 pairs, at the same wall_s (pair ratios 0.99-1.09).
_CHUNK_DOUBLES = 1 << 14
_FOLD_CHUNKS = 16


def _doubles(rngs, n: int) -> np.ndarray:
    """The next ``n`` ``random()`` doubles of every stream of ``rngs``, as an (R, n) array.

    ``getrandbits(64 * n)`` takes a stream's next 2n 32-bit words and places
    the first in the least significant bits, so its little-endian bytes are
    the words in draw order; each double is made from two of them as
    ``random()`` makes it, ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``.  Read
    as one little-endian 64-bit word ``a + b * 2**32``, the pair gives that
    53-bit integer exactly, and its conversion and scaling are exact.
    """
    raw = b"".join(rng.getrandbits(64 * n).to_bytes(8 * n, "little") for rng in rngs)
    x = np.frombuffer(raw, dtype="<u8").reshape(len(rngs), n)
    return (((x & 0xFFFFFFFF) >> 5 << 26) | (x >> 38)).astype(float) * (1.0 / 9007199254740992.0)


def _eps_draws(rngs, start: int, m: int, sigma: int, K: int, terms: list):
    """Every stream's draws for steps ``start .. start + m - 1`` (0-based) of an
    eps-greedy run restarting every ``sigma`` steps, drawn as the kernel draws
    them: the (m, R) reward uniforms, and the (m, R) arms the steps explore,
    K where a step takes the greedy arm.

    A step's draws depend only on the stream and its batch-local step count
    n: the explore test ``random() < terms[n]``, skipped in the round-robin
    (``-1.0``) and while the probability is at least 1, then on exploring
    ``randrange(K)`` as ``getrandbits`` until below K, and last the reward
    uniform.  ``terms`` is the kernel's table of a fresh policy's counts
    (``incentive._count_terms``), at least a batch long.
    """
    ps = []
    t, stop = start, start + m
    while t < stop:  # the local steps n of one batch at a time
        n = t % sigma
        end = min(sigma, n + stop - t)
        ps += terms[n:end]
        t += end - n
    k = K.bit_length()
    u = []
    explored = np.full((len(rngs), m), K, dtype=np.min_scalar_type(K))
    for i, rng in enumerate(rngs):
        uniform, getrandbits = rng.random, rng.getrandbits
        rep = []
        draw = rep.append
        hits = []
        for p in ps:
            if p >= 1.0 or (p >= 0.0 and uniform() < p):
                a = getrandbits(k)
                while a >= K:
                    a = getrandbits(k)
                hits.append((len(rep), a))
            draw(uniform())
        u.append(rep)
        if hits:
            at, arms = zip(*hits)
            explored[i, list(at)] = arms
    return np.array(u).T, explored.T


def _wins(u: np.ndarray, means: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[j, i, k] = u[j, i] < means[j, k]``, one arm at a time."""
    for k in range(means.shape[1]):
        np.less(u, means[:, k, None], out=out[:, :, k])
    return out


def _in_range(a: np.ndarray) -> bool:
    """Whether every value lies in [0, inf); NaN fails."""
    return 0.0 <= a.min() and a.max() < inf


def _arm_dtype(K: int) -> np.dtype:
    return np.min_scalar_type(K - 1)


def _rows(step_rows: np.ndarray, batches: int, j0: int, m: int):
    """The buffer rows of a span's steps ``j0 .. j0 + m - 1``: without
    restarts (one batch) a slice, so their rows are views; with restarts,
    split by batch, an index array."""
    return slice(j0, j0 + m) if batches == 1 else step_rows[j0:j0 + m]


def capacity(params, T: int, K: int, sigma: int) -> tuple:
    """The fewest and the most reps of a lockstep block restarting every ``sigma`` steps.

    A block runs in lockstep once its lanes (replications times restart
    batches) reach ``LOCKSTEP_MIN``, and while its lanes store at most
    ``LANE_BYTES``: with restarts, every lane-step keeps its arm wins (K
    bools), its arm and its compensation until the second pass, and a SWUCB
    window shorter than a batch keeps a ring of (index, reward) pairs per
    lane; an eps-greedy lane-step also keeps the arm it explores, or K.  A
    run without restarts stores nothing per step beyond a fixed-size chunk,
    so its most is ``inf``.  Thompson, which has no lockstep engine, gets
    ``(inf, 0)``.
    """
    if params.kind not in LOCKSTEP_KINDS:
        return inf, 0
    batches = -(-T // sigma)
    step = K + _arm_dtype(K).itemsize + 8
    if params.kind == "eps_greedy":
        step += np.min_scalar_type(K).itemsize
    stored = 0 if batches == 1 else batches * sigma * step
    if params.kind == "swucb" and params.tau < sigma:
        stored += batches * params.tau * 16
    return -(-LOCKSTEP_MIN // batches), LANE_BYTES // stored if stored else inf


def run_block(params, env, model: DriftModel, rngs, sigma: int, collect_curves=False):
    """Run one replication per stream of ``rngs`` in lockstep; each stream
    advances as far as on the kernels (a UCB-family run by T doubles).

    The policy restarts every ``sigma`` steps (``sigma = T`` without
    restarts).  Returns ``(totals, curves)``: the :class:`Totals` fields of
    every rep as a (4, R) array, and the (2, 4, T) sum and sum of squares of
    their curves over the reps, added in rep order, or ``None``.  Returns
    ``None`` when a step check fails, and raises ``FloatingPointError`` when a
    curve sum or square overflows.
    """
    means = env.schedule.means
    T, K = means.shape
    R = len(rngs)
    batches = -(-T // sigma)
    L = batches * R  # lane (b, i) is column b * R + i
    kind, gamma, tau = params.kind, params.gamma, params.tau
    # The step loop's constants as 0-d arrays, which numpy takes in faster
    # than Python floats; the doubles, and so every product, are the same.
    l, one, two = np.array(model.l, dtype=float), np.array(1.0), np.array(2.0)
    cap = np.array(model.cap, dtype=float) if model.kind == "saturating" else None
    if kind == "ducb":
        decay = np.array(gamma, dtype=float)
    # The buffers hold a span of local steps, row j holding step j of every
    # lane.  Without restarts a span is a chunk of steps, drawn, stepped and
    # summed before the next; with restarts it is a whole batch, every
    # lane's steps drawn first and summed after, in chunks of ``fold``
    # steps.  Step b * span + j of the span is row j, batch b: with rows
    # split by batch, row j * batches + b.  Lanes of a truncated last batch
    # run padded steps, which no check or sum reads.
    if batches == 1:
        span = fold = min(T, max(1, _CHUNK_DOUBLES // R))
    else:
        span, fold = sigma, max(1, min(-(-T // _FOLD_CHUNKS), _CHUNK_DOUBLES // R))
    wins = np.zeros((span, batches, R, K), dtype=bool)  # the reward x if a lane pulls an arm
    wins_rows, lane_wins = wins.reshape(-1, R, K), wins.reshape(span, L, K)
    eps = kind == "eps_greedy"
    if eps:  # the arm a lane-step explores, or K where it takes the greedy arm
        explore = np.full((span, batches, R), K, dtype=np.min_scalar_type(K))
        explore_rows, lane_explore = explore.reshape(-1, R), explore.reshape(span, L)
    step_rows = np.arange(span * batches).reshape(span, batches).T.reshape(-1)
    r = np.empty(L)  # the lanes' drifted rewards of one step
    # cum[:, 1 + j] holds the totals after a summed chunk's step j, and row 0
    # carries the totals over from the chunk before.
    cum = np.zeros((4, fold + 1, R))
    curves = by_rep = None
    if collect_curves:
        curves = np.zeros((2, 4, T))
        by_rep = np.empty((R, 4, fold))  # one chunk of curves, rep axis first
    ar_k = np.arange(0, L * K, K)  # flat offset of a lane's arm 0
    # flat offsets of arm 0 in a chunk's rows of wins and of means
    x_at = np.arange(0, fold * R * K, K).reshape(fold, R)
    mu_at = np.arange(0, fold * K, K)[:, None]
    n = np.zeros((L, K))  # pull count, discounted count or window count
    s = np.zeros((L, K))  # the matching reward sum
    nf, sf = n.reshape(-1), s.reshape(-1)
    n_obs = 0
    terms = _count_terms(params, K, 0, 0.0, min(sigma, T))  # a batch's counts
    # DUCB: a count decayed since the batch's first step; while it is above
    # 0, no discounted count has underflowed to 0.
    least = 1.0
    ring = kind == "swucb" and tau < sigma  # else the window never drops a pull
    if ring:
        ring_idx = np.empty((tau, L), dtype=np.intp)
        ring_r = np.empty((tau, L))
    e, v = np.empty((L, K)), np.empty((L, K))  # a step's sample means and index
    e_cols = [e[:, i] for i in range(K)]
    greedy = np.empty(L)  # a step's greedy sample mean
    idx = np.empty(L, dtype=np.intp)  # flat offset of a step's arm in each lane
    best = means.max(axis=1)  # each step's best mean
    arm = np.empty((span, L), dtype=_arm_dtype(K))  # each lane-step's arm
    chi = np.empty((span, L))  # and its compensation
    by_step = (arm.reshape(-1, R), chi.reshape(-1, R), wins_rows)
    with np.errstate(all="ignore"):
        for first in range(0, sigma, span):
            stop = min(first + span, T) if batches == 1 else T
            for c0 in range(first, stop, fold):
                m = min(fold, stop - c0)
                rows = _rows(step_rows, batches, c0 - first, m)
                if eps:
                    u, explore_rows[rows] = _eps_draws(rngs, c0, m, sigma, K, terms)
                else:
                    u = _doubles(rngs, m).T
                u = np.ascontiguousarray(u)  # (m, R), compared one arm at a time
                if batches == 1:
                    _wins(u, means[c0:c0 + m], wins_rows[rows])
                else:
                    wins_rows[rows] = _wins(u, means[c0:c0 + m], np.empty((m, R, K), dtype=bool))
            if eps:
                explores = (lane_explore < K).any(axis=1).tolist()  # whether any lane explores
            for j in range(min(span, sigma - first)):
                chi_j = chi[j]
                if n_obs >= K:  # past the round-robin: pick the arms
                    np.divide(s, n, out=e)
                    if eps:  # every arm has a pull since the batch began
                        a = e.argmax(axis=1)
                        if explores[j]:
                            explore_j = lane_explore[j]
                            np.copyto(a, explore_j, where=explore_j < K)
                    else:
                        np.divide(terms[n_obs], n, out=v)
                        np.sqrt(v, out=v)
                        if kind == "ducb":
                            v *= two
                        v += e
                        # an arm empties only as pulls leave the window or counts underflow
                        if (ring or least == 0.0) and np.count_nonzero(nf) < nf.size:
                            empty = n == 0.0
                            e[empty] = 0.0
                            v[empty] = inf
                        a = v.argmax(axis=1)
                if ring:  # this step's pull takes the ring slot of the pull leaving the window
                    h = n_obs % tau
                    idx, r = ring_idx[h], ring_r[h]
                    if n_obs >= tau:  # the pick above still counted it
                        nf[idx] -= one
                        sf[idx] -= r
                if n_obs < K:  # round-robin: no greedy arm, no compensation
                    np.add(ar_k, n_obs, out=idx)
                    arm[j] = n_obs
                    chi_j.fill(0.0)
                else:
                    arm[j] = a
                    np.add(a, ar_k, out=idx)
                    if eps and not explores[j]:  # every lane takes its greedy arm
                        chi_j.fill(0.0)
                    else:
                        np.maximum(e_cols[0], e_cols[1], out=greedy)
                        for col in e_cols[2:]:
                            np.maximum(greedy, col, out=greedy)
                        np.subtract(greedy, e.take(idx), out=chi_j)
                if cap is None:
                    np.multiply(chi_j, l, out=r)
                else:
                    np.minimum(chi_j, cap, out=r)
                    r *= l
                r += lane_wins[j].take(idx)
                if kind == "ducb":
                    n *= decay
                    s *= decay
                    least *= gamma
                nf[idx] += one
                sf[idx] += r
                n_obs += 1
            # Sum the span's steps in time order, rep by rep.
            for c0 in range(first, stop, fold):
                m = min(fold, stop - c0)
                at = _rows(step_rows, batches, c0 - first, m)
                arm_c, chi_c, wins_c = (a[at] for a in by_step)
                x_c = wins_c.reshape(-1).take(x_at[:m] + arm_c)
                r_c = (chi_c if cap is None else np.minimum(chi_c, cap)) * l + x_c
                if not (_in_range(chi_c) and _in_range(r_c)):
                    return None
                steps = slice(c0, c0 + m)
                mu_star = best[steps, None]
                sums = slice(1, m + 1)
                np.subtract(mu_star, means[steps].reshape(-1).take(mu_at[:m] + arm_c),
                            out=cum[0, sums])
                np.subtract(mu_star, x_c, out=cum[1, sums])
                cum[2, sums] = chi_c
                cum[3, sums] = x_c
                part = cum[:, :m + 1]
                np.add.accumulate(part, axis=1, out=part)
                if collect_curves:
                    reps_first = by_rep[:, :, :m]
                    np.copyto(reps_first, np.moveaxis(cum[:, sums], 2, 0))
                    with np.errstate(over="raise"):
                        np.add.reduce(reps_first, axis=0, out=curves[0, :, steps], initial=0.0)
                        np.square(reps_first, out=reps_first)
                        np.add.reduce(reps_first, axis=0, out=curves[1, :, steps], initial=0.0)
                cum[:, 0] = cum[:, m]
    return cum[:, 0], curves
