"""Property tests of the factored transition operator on random small systems."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

import twjscc as tw
from twjscc.coded_channel import fresh_law, io_index
from twjscc.conditions import _UNIT_SOURCE, _adaptive_report, embed_adaptive_scheme, lift_hybrid
from twjscc.markov import (
    RESIDUAL_TOL,
    FactoredKernel,
    _residual,
    build_chain,
    pair_marginal,
    solve_stationary,
)
from twjscc.probability import (
    Alphabet,
    ConditionalPmf,
    JointPmf,
    conditional_mutual_information,
    marginalize,
    mutual_information,
)

from util import (
    all_rows_image,
    all_rows_pair_marginal,
    all_rows_push,
    bsc_codeword_scheme,
    dense_kernel,
    dense_pair_law,
    dense_solve_stationary,
    random_adaptive_scheme,
    random_binary_channel,
    random_configuration,
    random_joint_source,
)


def with_zeros(rng, ch):
    """The channel with some transitions removed (each input pair keeps at
    least one output pair), so that the kernel has zero entries."""
    law = ch.law.probs * (rng.random(ch.law.probs.shape) < 0.6)
    law = law.reshape(4, 4)
    dead = law.sum(axis=1) == 0
    law[dead, rng.integers(4, size=dead.sum())] = 1.0
    law = (law / law.sum(axis=1, keepdims=True)).reshape(ch.law.probs.shape)
    return tw.TwoWayChannel(ch.x1, ch.x2, ch.y1, ch.y2,
                            ConditionalPmf(ch.law.given_axes, ch.law.out_axes, law))


@st.composite
def models(draw):
    """A random configuration, its channel and source, and the rng that drew them."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ch = random_binary_channel(rng)
    if draw(st.booleans()):
        ch = with_zeros(rng, ch)
    src = random_joint_source(rng)
    cfg = random_configuration(rng, ch, src, draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    return cfg, ch, src, rng


@st.composite
def io_memory_models(draw):
    """Models with a deterministic channel and f tables that read only the
    previous io: the inputs then follow a deterministic map, and every cycle
    of it is a closed class, so the stationary law is often not unique."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    xa, ya = Alphabet(2, "x"), Alphabet(2, "y")
    law = np.zeros((4, 4))
    law[np.arange(4), rng.integers(4, size=4)] = 1.0
    ch = tw.TwoWayChannel(xa, xa, ya, ya, ConditionalPmf((xa, xa), (ya, ya), law.reshape(2, 2, 2, 2)))
    src = random_joint_source(rng)
    cfg = random_configuration(rng, ch, src, draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    f1, f2 = (np.ascontiguousarray(np.broadcast_to(rng.integers(2, size=4), f.shape))
              for f in (cfg.f1, cfg.f2))
    return dataclasses.replace(cfg, f1=f1, f2=f2), ch, src, rng


@st.composite
def adaptive_scheme_models(draw):
    """Channel-only schemes embedded on the unit source."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ch = random_binary_channel(rng)
    if draw(st.booleans()):
        ch = with_zeros(rng, ch)
    return embed_adaptive_scheme(random_adaptive_scheme(rng, ch)), ch, _UNIT_SOURCE, rng


def kernel_of(cfg, ch, src):
    """The chain's transition kernel, built from its factors without a solve."""
    return FactoredKernel(cfg.f1, cfg.f2, fresh_law(cfg, src), ch.law.probs)


@st.composite
def kernels(draw, model_strategy):
    """(configuration, kernel, rng) of a model drawn from `model_strategy`."""
    cfg, ch, src, rng = draw(model_strategy)
    return cfg, kernel_of(cfg, ch, src), rng


@st.composite
def tiny_fresh_kernels(draw):
    """Kernels in which one fresh tuple has probability about 1e-323: its
    successors are reachable, yet pushing the uniform vector underflows to
    0.0 on them.  No source and codeword laws give this fresh law, so these
    are kernels, not systems."""
    cfg, ch, src, rng = draw(models())
    psu = fresh_law(cfg, src)
    psu.flat[draw(st.integers(0, psu.size - 1))] = 1e-323
    psu /= psu.sum()
    return cfg, FactoredKernel(cfg.f1, cfg.f2, psu, ch.law.probs), rng


def all_kernels():
    return st.one_of(kernels(models()), kernels(io_memory_models()), tiny_fresh_kernels())


def uniform_law(cfg):
    """The uniform previous-block law of `cfg`, stationary for few chains."""
    shape = tuple(a.size for a in cfg.prev_axes)
    return JointPmf(cfg.prev_axes, np.full(shape, 1.0 / np.prod(shape)))


@st.composite
def systems(draw):
    """Systems of random models under a supplied uniform previous-block law,
    which build_chain keeps without a solve."""
    cfg, ch, src, rng = draw(models())
    return build_chain(dataclasses.replace(cfg, prev_law=uniform_law(cfg)), ch, src), rng


@st.composite
def vectors_with_zeros(draw, sys, rng):
    """A nonnegative vector on a random set of states, or of one-step image
    states; the first may carry mass off the image."""
    n = sys.n_states
    pool = np.arange(n) if draw(st.booleans()) else sys.kernel.image()
    rows = pool[rng.random(pool.size) < draw(st.floats(0.0, 1.0))]
    pi = np.zeros(n)
    pi[np.append(rows, rng.choice(pool))] = rng.random(rows.size + 1) + 0.01
    return pi


def closed_classes(dense):
    """Number of closed communicating classes of a transition matrix, from
    the boolean transitive closure of its positive entries."""
    reach = (dense > 0) | np.eye(len(dense), dtype=bool)
    while True:
        grown = (reach.astype(float) @ reach.astype(float)) > 0
        if np.array_equal(grown, reach):
            break
        reach = grown
    recurrent = np.all(reach <= reach.T, axis=1)  # every state i reaches, reaches i
    return len({reach[i].tobytes() for i in np.flatnonzero(recurrent)})


def loop_kernel(cfg, ch, src):
    """The transition matrix by explicit loops over (state, fresh tuple, y1, y2)."""
    chan = ch.law.probs
    ny1, ny2 = chan.shape[2:]
    psu = fresh_law(cfg, src)
    shape = tuple(a.size for a in cfg.prev_axes)
    n = int(np.prod(shape))
    out = np.zeros((n, n))
    for prev in range(n):
        s1p, s2p, u1p, u2p, io1p, io2p = np.unravel_index(prev, shape)
        for s1, s2, u1, u2 in np.ndindex(psu.shape):
            x1 = cfg.f1[s1, u1, s1p, u1p, io1p]
            x2 = cfg.f2[s2, u2, s2p, u2p, io2p]
            for y1, y2 in np.ndindex(ny1, ny2):
                io1, io2 = io_index(x1, y1, ny1), io_index(x2, y2, ny2)
                nxt = np.ravel_multi_index((s1, s2, u1, u2, io1, io2), shape)
                out[prev, nxt] += psu[s1, s2, u1, u2] * chan[x1, x2, y1, y2]
    return out


@settings(deadline=None, max_examples=30)
@given(models())
def test_dense_form_matches_loop_kernel(case):
    cfg, ch, src, _ = case
    kernel = kernel_of(cfg, ch, src)
    dense = dense_kernel(kernel)
    assert np.array_equal(dense, loop_kernel(cfg, ch, src))
    assert kernel.nnz == np.count_nonzero(dense > 0)


@settings(deadline=None)
@given(kernels(models()))
def test_push_is_row_vector_times_dense(case):
    _, kernel, rng = case
    pi = rng.dirichlet(np.ones(kernel.n_states))
    assert np.abs(kernel.push(pi) - pi @ dense_kernel(kernel)).max() <= 1e-15


@settings(deadline=None)
@given(systems(), st.lists(st.integers(0, 13), min_size=1, max_size=6, unique=True))
def test_pair_marginal_matches_marginalized_pair_law(case, keep):
    sys, rng = case
    pi = rng.dirichlet(np.ones(sys.n_states))
    dense = marginalize(dense_pair_law(sys, pi), tuple(keep)).probs
    assert np.abs(pair_marginal(sys, pi, tuple(keep)).probs - dense).max() <= 1e-13


@settings(deadline=None)
@given(models())
def test_solved_vector_is_fixed_point(case):
    cfg, ch, src, _ = case
    sys = build_chain(cfg, ch, src)
    assert np.abs(sys.pi @ dense_kernel(sys.kernel) - sys.pi).sum() <= RESIDUAL_TOL


@settings(deadline=None)
@given(st.one_of(kernels(models()), kernels(io_memory_models())))
def test_uniqueness_verdict_matches_closed_classes(case):
    _, kernel, _ = case
    try:
        solve_stationary(kernel)
        unique = True
    except ValueError as exc:
        assert "not unique" in str(exc)
        unique = False
    event(f"unique={unique}")
    assert unique == (closed_classes(dense_kernel(kernel)) == 1)


@settings(deadline=None)
@given(systems(), st.data())
def test_push_over_nonzero_rows_is_bit_equal_to_all_rows(case, data):
    sys, rng = case
    pi = data.draw(vectors_with_zeros(sys, rng))
    assert np.array_equal(sys.kernel.push(pi), all_rows_push(sys, pi))


@settings(deadline=None)
@given(systems(), st.data(), st.lists(st.integers(0, 13), min_size=1, max_size=6, unique=True))
def test_pair_marginal_over_nonzero_rows_is_bit_equal_to_all_rows(case, data, keep):
    sys, rng = case
    pi = data.draw(vectors_with_zeros(sys, rng))
    probs = pair_marginal(sys, pi, tuple(keep)).probs
    assert np.array_equal(probs, all_rows_pair_marginal(sys, pi, tuple(keep)))
    # the weights spread over every channel cell before the sum
    assert np.abs(probs - all_rows_pair_marginal(sys, pi, tuple(keep), spread=True)).max() <= 1e-13


@settings(deadline=None)
@given(all_kernels())
def test_image_is_every_one_step_successor(case):
    cfg, kernel, rng = case
    image = kernel.image()
    assert np.array_equal(image, all_rows_image(cfg, kernel))
    pi = rng.random(kernel.n_states)
    assert np.isin(np.flatnonzero(kernel.push(pi)), image).all()


@settings(deadline=None)
@given(all_kernels())
def test_image_push_is_bit_equal_to_dense_push(case):
    _, kernel, rng = case
    image = kernel.image()
    pi = np.zeros(kernel.n_states)
    pi[image] = rng.random(image.size) * (rng.random(image.size) < 0.7)  # exact zeros inside
    assert np.array_equal(kernel.push_image(pi[image]), kernel.push(pi)[image])


def solve_outcome(solve, kernel):
    """(law, residual) of a solve, or its error's type and message."""
    try:
        return solve(kernel)
    except (RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(deadline=None)
@given(all_kernels())
def test_solve_is_bit_equal_to_dense_oracle(case):
    _, kernel, _ = case
    got, want = solve_outcome(solve_stationary, kernel), solve_outcome(dense_solve_stationary, kernel)
    if isinstance(want[0], np.ndarray):
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    else:  # the image-held solve adds the slow mode to a convergence failure
        assert got[0] is want[0] and got[1].startswith(want[1])
        event(want[1][:30])


def cold_kernel(cfg, kernel):
    """The kernel rebuilt from its factors, with no cells gathered yet."""
    return FactoredKernel(cfg.f1, cfg.f2, kernel.psu.reshape(kernel.state_shape[:4]), kernel.chan)


def assert_uniform_push_is_gathered_push(cfg, kernel):
    n = kernel.n_states
    closed = cold_kernel(cfg, kernel).push_uniform()
    assert np.array_equal(closed, cold_kernel(cfg, kernel).push(np.full(n, 1.0 / n)))


@settings(deadline=None)
@given(all_kernels())
def test_uniform_push_is_bit_equal_to_gathered_push(case):
    cfg, kernel, _ = case
    assert_uniform_push_is_gathered_push(cfg, kernel)


@pytest.mark.parametrize("chain", ["criterion 8 lift", "dueck"])
def test_uniform_push_is_bit_equal_on_workload_chains(chain):
    if chain == "dueck":  # case 0 of the benchmark's eval_dueck pool (pool seed 20010261)
        ch, src = tw.preset_dueck(), tw.preset_independent_bernoulli(0.89, 0.89)
        cfg = random_configuration(np.random.default_rng([20010261, 0]), ch, src)
    else:  # the lifted BSC(0.45) hybrid that criterion 8 and sim_crit8 simulate
        ch, src = tw.preset_crossed_bitpipes(), tw.preset_independent_bernoulli(0.5, 0.5)
        d = tw.hamming(src.s1)
        cfg = lift_hybrid(bsc_codeword_scheme(ch, src, 0.45, d, d), ch, src)
    kernel = build_chain(cfg, ch, src).kernel
    assert kernel.counts.max() > 1  # cells that several states reach
    assert_uniform_push_is_gathered_push(cfg, kernel)


@settings(deadline=None)
@given(st.one_of(models(), io_memory_models()))
def test_built_system_carries_its_law(case):
    cfg, ch, src, _ = case
    # without a law: the solved law, installed as prev_law, and the residual
    # of that very vector
    try:
        sys = build_chain(cfg, ch, src)
    except ValueError as exc:
        assert "not unique" in str(exc)
        event("not unique")
    else:
        assert np.array_equal(sys.pi, sys.cfg.prev_law.probs.ravel())
        assert sys.residual == _residual(sys.kernel, sys.pi)
    # with a supplied law, stationary or not: that law, unchanged
    law = uniform_law(cfg)
    given = build_chain(dataclasses.replace(cfg, prev_law=law), ch, src)
    assert given.cfg.prev_law is law and np.array_equal(given.pi, law.probs.ravel())
    assert given.residual == _residual(given.kernel, law.probs.ravel())
    for field in ("cfg", "kernel", "pi", "residual"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(given, field, getattr(given, field))


@settings(deadline=None)
@given(all_kernels())
def test_solved_residual_is_that_of_the_returned_vector(case):
    _, kernel, _ = case
    try:
        pi, res = solve_stationary(kernel)
    except ValueError:
        event("not unique")
    else:
        assert res == _residual(kernel, pi) <= RESIDUAL_TOL
        assert pi.min() >= 0.0 and abs(pi.sum() - 1.0) <= 1e-12


# Per-quantity Z-axis keeps of the adaptive report: (lhs, rhs) for each
# terminal, raw and simplified.  The raw right sides keep the other
# terminal's input x as well.
RAW_REPORT_KEEPS = (((4, 6), (6, 1, 3, 5, 7, 9, 11, 13)), ((5, 7), (7, 0, 2, 4, 6, 8, 10, 12)))
SIMPLIFIED_REPORT_KEEPS = (((4, 6, 5, 7), (6, 13, 5, 7)), ((5, 7, 4, 6), (7, 12, 4, 6)))


def per_quantity_report(sys, simplify):
    """(lhs1, rhs1, lhs2, rhs2), each side from its own pair marginal."""
    sides = []
    for lhs, rhs in SIMPLIFIED_REPORT_KEEPS if simplify else RAW_REPORT_KEEPS:
        ml, mr = pair_marginal(sys, sys.pi, lhs), pair_marginal(sys, sys.pi, rhs)
        if simplify:
            sides += [conditional_mutual_information(m, (0,), (1,), (2, 3)) for m in (ml, mr)]
        else:
            sides += [mutual_information(ml, (0,), (1,)), mutual_information(mr, (0,), tuple(range(1, 8)))]
    return sides


@settings(deadline=None)
@given(st.one_of(models(), io_memory_models(), adaptive_scheme_models()))
def test_adaptive_report_matches_per_quantity_marginals(case):
    cfg, ch, src, _ = case
    try:
        sys = build_chain(cfg, ch, src)
    except ValueError:  # no unique stationary law
        assume(False)
    for simplify in (False, True):
        rep = _adaptive_report(sys, simplify=simplify)
        got = (rep.lhs1, rep.rhs1, rep.lhs2, rep.rhs2)
        assert np.abs(np.subtract(got, per_quantity_report(sys, simplify))).max() <= 1e-12
