"""Whole-array paths against the per-point loops they replaced.

``check_lyapunov`` evaluates each Lyapunov function once over a stack of
orbits, ``iterate`` collects a whole orbit in one call and ``Trajectory``
builds one point per distinct row, the trajectory CSV formats each distinct
row once, ``cesaro`` renormalizes all its means at once,
``contraction_report`` searches its entry step over collected blocks and
measures all its blocks with index arrays over one collected orbit, and
``check_invariant_set`` takes each sample's defects over one collected
orbit.  The oracles below are the per-point code as it was
before, copied here; every comparison is exact (bits, or bytes of output),
because the arithmetic is the same.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsodyn import analysis, cli, tensor
from qsodyn.analysis import (
    LYAPUNOV_SLACK,
    InvariantSetSpec,
    LyapunovFn,
    abs_diff_product,
    check_invariant_set,
    check_lyapunov,
    combine_lyapunov,
    coord_product,
    cycle_product,
    cycle_sum,
    cyclic_product,
    khukr_m_tau,
    last_coord,
    m0_set,
    m_omega_set,
    sample_interior,
    vallander_diag,
)
from qsodyn.errors import InapplicableFunction, InapplicableSet, NeverEntersRegion, QsoError
from qsodyn.families import make, make_alpha_combination, make_quasi_strict, make_s2
from qsodyn.simplex import Permutation, SimplexPoint, parse_cycles, validate_point
from qsodyn.tensor import CoefficientTensor, _step, iterate, random_tensor, run_collect
from qsodyn.verification import _blend_config, _interior_points

PERM6 = "(1 2)(3 4 5)"


def bits(v: float) -> str:
    """The bits of a float: unlike ==, tells -0.0 from 0.0 and matches NaN."""
    return float(v).hex()


# --- Lyapunov -------------------------------------------------------------------


def old_cyclic_product(x):
    return np.prod(np.abs(x - np.roll(x, -1)))


def old_cycle_product(idx):
    return lambda x: np.prod(x[idx])


def old_cycle_sum(idx):
    return lambda x: np.sum(x[idx])


def old_last_coord(x):
    return x[-1]


def old_abs_diff_product(x):
    return abs(x[0] - x[1]) * abs(x[1] - x[2]) * abs(x[2] - x[0])


def old_coord_product(x):
    return x[0] * x[1] * x[2]


def old_call(point_fn, x):
    """``LyapunovFn.__call__`` as it was: one point, one float."""
    return float(point_fn(np.asarray(x, dtype=float)))


def old_combine(point_fns, coeffs):
    def fn(x):
        vals = [c * old_call(g, x) for c, g in zip(coeffs, point_fns)]
        return float(np.prod(vals) + np.sum(vals))
    return fn


def oracle_check_lyapunov(t, point_fn, direction, n0, samples, horizon, seed, slack):
    """``check_lyapunov``'s per-point loop: (violations, worst, worst_at)."""
    rng = np.random.default_rng(seed)
    starts = sample_interior(rng, t.m, samples)
    sign = -1.0 if direction == "NON_INCREASING" else 1.0
    violations = 0
    worst = 0.0
    worst_at = None
    for si in range(samples):
        orbit = run_collect(t, starts[si], horizon)
        vals = np.array([old_call(point_fn, orbit[n]) for n in range(horizon + 1)])
        deltas = sign * np.diff(vals)
        for n in range(n0, horizon):
            bad = -deltas[n]
            if bad > slack:
                violations += 1
                if bad > worst:
                    worst = float(bad)
                    worst_at = (si, n)
    return violations, worst, worst_at


def assert_matches_oracle(t, fn, point_fn, samples, horizon, seed, slack):
    rep = check_lyapunov(t, fn, samples, horizon, seed, slack=slack)
    violations, worst, worst_at = oracle_check_lyapunov(
        t, point_fn, fn.direction, fn.n0, samples, horizon, seed, slack)
    assert (rep.violations, rep.worst_location) == (violations, worst_at)
    assert bits(rep.worst_violation) == bits(worst)
    assert (rep.fn_id, rep.direction, rep.n0, rep.slack, rep.samples, rep.horizon) == (
        fn.id, fn.direction, fn.n0, slack, samples, horizon)
    return rep


@st.composite
def catalog_function(draw, m):
    """A catalog Lyapunov function for m coordinates and its old per-point form."""
    kind = draw(st.sampled_from(["cyclic", "cycle_product", "cycle_sum", "last_coord",
                                 "abs_diff", "coord_product"]))
    if kind == "cyclic":
        return cyclic_product(), old_cyclic_product
    if kind in ("cycle_product", "cycle_sum"):
        perm = Permutation.from_images(draw(st.permutations(range(1, m))))
        index = draw(st.integers(1, len(perm.cycles)))
        idx = np.array(perm.cycles[index - 1]) - 1
        if kind == "cycle_product":
            return cycle_product(perm, index), old_cycle_product(idx)
        return cycle_sum(perm, index), old_cycle_sum(idx)
    if kind == "last_coord":
        return last_coord(draw(st.integers(0, 5))), old_last_coord
    if kind == "abs_diff":
        return abs_diff_product(), old_abs_diff_product
    return coord_product(), old_coord_product


@st.composite
def lyapunov_cases(draw):
    if draw(st.booleans()):
        m = draw(st.integers(3, 12))
        t = random_tensor(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), m)
    else:
        t = draw(st.sampled_from([
            make("REGULAR", 6),
            make("QUASI_STRICT", 6, parse_cycles(PERM6, 5)),
            make("ALPHA_COMBINATION", 4, parse_cycles("(1 2 3)", 3), 0.3),
            make("ALPHA_COMBINATION", 6, parse_cycles(PERM6, 5), 0.5),
            make("GSN_ALPHA", None, None, 0.5),
            make("VALLANDER_SPIRAL", None, None, 0.3),
            make("KHUKR"),
        ]))
        t = CoefficientTensor(t.m, t.p)  # no spec: every function applies
    fn, point_fn = draw(catalog_function(t.m))
    if draw(st.booleans()):
        # a composite of same-direction parts
        parts = [(fn, point_fn)]
        for _ in range(draw(st.integers(0, 2))):
            g, point_g = draw(catalog_function(t.m))
            if g.direction == fn.direction:
                parts.append((g, point_g))
        coeffs = draw(st.lists(st.floats(0.0, 3.0), min_size=len(parts), max_size=len(parts)))
        fn = combine_lyapunov([g for g, _ in parts], coeffs)
        point_fn = old_combine([point_g for _, point_g in parts], coeffs)
    samples = draw(st.integers(1, 30))
    horizon = draw(st.integers(fn.n0 + 1, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    slack = draw(st.sampled_from([0.0, LYAPUNOV_SLACK, 1e-6]))
    block = draw(st.sampled_from([analysis._LYAPUNOV_BLOCK_POINTS, 1, 64, 200]))
    return t, fn, point_fn, samples, horizon, seed, slack, block


@settings(max_examples=150, deadline=None)
@given(lyapunov_cases())
def test_check_lyapunov_matches_the_per_point_loop(case):
    t, fn, point_fn, samples, horizon, seed, slack, block = case
    with mock.patch.object(analysis, "_LYAPUNOV_BLOCK_POINTS", block):
        assert_matches_oracle(t, fn, point_fn, samples, horizon, seed, slack)
    # the stack and each single point give the old per-point values, bit for bit
    orbits = np.stack([run_collect(t, x, horizon)
                       for x in sample_interior(np.random.default_rng(seed), t.m, 3)])
    want = np.array([[old_call(point_fn, x) for x in orbit] for orbit in orbits])
    assert np.array_equal(fn.fn(orbits), want)
    assert [bits(fn(x)) for x in orbits[0]] == [bits(v) for v in want[0]]


@pytest.mark.parametrize("block", [analysis._LYAPUNOV_BLOCK_POINTS, 101, 1])
def test_many_violations_match_the_per_point_loop(block):
    # no burn-in on the blend's transient: thousands of violations
    t = make("ALPHA_COMBINATION", 4, parse_cycles("(1 2 3)", 3), 0.3)
    with mock.patch.object(analysis, "_LYAPUNOV_BLOCK_POINTS", block):
        rep = assert_matches_oracle(t, last_coord(0), old_last_coord, 100, 100, 5,
                                    LYAPUNOV_SLACK)
    assert rep.violations > 1000


def test_catalog_checks_match_the_per_point_loop():
    qs6 = make("QUASI_STRICT", 6, parse_cycles(PERM6, 5))
    perm = parse_cycles(PERM6, 5)
    for t, fn, point_fn in [
        (make("REGULAR", 6), cyclic_product(), old_cyclic_product),
        (qs6, cycle_product(perm, 1), old_cycle_product(np.array([0, 1]))),
        (qs6, cycle_sum(perm, 2), old_cycle_sum(np.array([2, 3, 4]))),
        (make("GSN_ALPHA", None, None, 0.5), abs_diff_product(), old_abs_diff_product),
        (make("VALLANDER_SPIRAL", None, None, 0.3), coord_product(), old_coord_product),
    ]:
        assert_matches_oracle(t, fn, point_fn, 100, 100, 11, LYAPUNOV_SLACK)
        assert_matches_oracle(t, fn, point_fn, 40, 30, 3, 0.0)


@pytest.mark.parametrize("parts", [1, 2, 3, 5, 9, 12])
def test_composite_values_match_the_per_point_sum(parts):
    # numpy sums up to 8 terms one by one and more in its pairwise order
    perm = parse_cycles(PERM6, 5)
    catalog = [(cycle_sum(perm, 1), old_cycle_sum(np.array([0, 1]))),
               (cycle_product(perm, 2), old_cycle_product(np.array([2, 3, 4]))),
               (cycle_sum(perm, 2), old_cycle_sum(np.array([2, 3, 4])))]
    chosen = [catalog[k % 3] for k in range(parts)]
    coeffs = [0.3 + 0.7 * k for k in range(parts)]
    fn = combine_lyapunov([g for g, _ in chosen], coeffs)
    point_fn = old_combine([point_g for _, point_g in chosen], coeffs)
    t = make("QUASI_STRICT", 6, perm)
    orbits = np.stack([run_collect(t, x, 50)
                       for x in sample_interior(np.random.default_rng(parts), 6, 20)])
    want = np.array([[old_call(point_fn, x) for x in orbit] for orbit in orbits])
    assert np.array_equal(fn.fn(orbits), want)
    assert_matches_oracle(t, fn, point_fn, 20, 50, parts, 0.0)


def test_long_cycle_values_match_the_per_point_loop():
    # a cycle of 11 symbols: numpy sums more than 8 terms in its pairwise order
    perm = parse_cycles("(1 2 3 4 5 6 7 8 9 10 11)", 11)
    t = random_tensor(np.random.default_rng(3), 12)
    orbits = np.stack([run_collect(t, x, 30)
                       for x in sample_interior(np.random.default_rng(4), 12, 10)])
    for fn, point_fn in [(cycle_sum(perm, 1), old_cycle_sum(np.arange(11))),
                         (cycle_product(perm, 1), old_cycle_product(np.arange(11))),
                         (cyclic_product(), old_cyclic_product)]:
        want = np.array([[old_call(point_fn, x) for x in orbit] for orbit in orbits])
        assert np.array_equal(fn.fn(orbits), want)
        assert_matches_oracle(t, fn, point_fn, 10, 30, 4, 0.0)


def test_nan_values_never_count():
    def point_fn(x):
        return np.nan if x[0] > 0.3 else x[-1]

    fn = LyapunovFn("NAN_ABOVE", "NON_INCREASING", 0, (),
                    lambda x: np.where(x[..., 0] > 0.3, np.nan, x[..., -1]))
    t = make("ALPHA_COMBINATION", 4, parse_cycles("(1 2 3)", 3), 0.3)
    t = CoefficientTensor(t.m, t.p)
    rep = assert_matches_oracle(t, fn, point_fn, 50, 40, 2, 0.0)
    assert 0 < rep.violations


def test_a_per_point_function_is_rejected():
    fn = LyapunovFn("FIRST", "NON_INCREASING", 0, (), lambda x: x[0])
    with pytest.raises(InapplicableFunction, match="last axis"):
        check_lyapunov(make("REGULAR", 4), fn, 5, 10, seed=0)


@pytest.mark.parametrize("n0", [-1, 1.5])
def test_bad_burn_in_rejected(n0):
    fn = LyapunovFn("LAST", "NON_INCREASING", n0, (), lambda x: x[..., -1])
    with pytest.raises(QsoError, match="n0"):
        check_lyapunov(make("REGULAR", 4), fn, 5, 10, seed=0)


@pytest.mark.parametrize("horizon", [2.5, 0, -3])
def test_bad_horizon_rejected(horizon):
    with pytest.raises(QsoError, match="horizon"):
        check_lyapunov(make("REGULAR", 4), cyclic_product(), 5, horizon, seed=0)


# --- trajectories ------------------------------------------------------------------


def oracle_points(t, x0, n_steps, stride):
    """``iterate``'s points as they were: one validated point per row,
    collected in blocks of 4096 rows."""
    points = [(0, x0)]
    x, done = x0.array, 0
    while done < n_steps:
        n = min(4096 * stride, n_steps - done)
        _, rows, _ = tensor._collect(t, x, n, stride)
        points += [(done + min(i * stride, n), SimplexPoint(tuple(rows[i].tolist())))
                   for i in range(1, len(rows))]
        x, done = rows[-1], done + n
    return points


def oracle_csv(t, x0, steps, stride):
    """``cli._trajectory_csv`` as it was: every row formatted on its own."""
    lines = ["n," + ",".join(f"x{i}" for i in range(1, t.m + 1))]
    for n, pt in oracle_points(t, x0, steps, stride):
        lines.append(str(n) + "," + ",".join(format(v, ".17g") for v in pt.coords))
    return "\n".join(lines) + "\n"


BLOCK = cli.CSV_BLOCK_ROWS

ORBITS = {
    # converges to a bitwise fixed point within a few steps: x^(12) = x^(11)
    "REGULAR": (make("REGULAR", 5), [0.4, 0.3, 0.2, 0.05, 0.05]),
    # that orbit's x^(11): bit-fixed from step 0
    "REGULAR_FIXED": (make("REGULAR", 5), [0.19999999999999998] * 4 + [0.2]),
    # period 2 and period 6
    "KHUKR": (make("KHUKR"), [0.4, 0.36, 0.24]),
    "QUASI_STRICT": (make("QUASI_STRICT", 6, parse_cycles(PERM6, 5)),
                     [0.3, 0.1, 0.2, 0.15, 0.05, 0.2]),
    # infinite limit set: no row repeats
    "GANIKHODJAEV": (make("GANIKHODJAEV_LAMBDA", None, None, 0.1), [0.5, 0.3, 0.2]),
}


@pytest.mark.parametrize("orbit", sorted(ORBITS))
@pytest.mark.parametrize("steps,stride", [
    (0, 1), (1, 1), (3000, 1), (1001, 7),
    # the edges of the oracle's 4096-row blocks
    (4095, 1), (4096, 1), (4097, 1),
    (12287, 3), (12288, 3), (12289, 3), (8197, 2),
    # around REGULAR's fixed step 11, up to it, past it and past it inside a stride
    (11, 1), (12, 1), (12, 5),
    # the edges of the CSV's text blocks: where the orbit never settles, heads
    # of a block and of a row either side; for REGULAR, settled at step 11,
    # tails of as many rows
    (BLOCK - 1, 1), (BLOCK, 1), (BLOCK + 1, 1),
    (BLOCK + 9, 1), (BLOCK + 10, 1), (BLOCK + 11, 1),
])
def test_trajectory_csv_matches_the_per_row_writer(orbit, steps, stride):
    t, x0 = ORBITS[orbit]
    x0 = validate_point(x0)
    assert "".join(cli._trajectory_csv(t, x0, steps, stride)) == oracle_csv(
        t, x0, steps, stride)
    traj = iterate(t, x0, steps, stride)
    want = oracle_points(t, x0, steps, stride)
    assert traj.steps.tolist() == [n for n, _ in want]
    assert [[bits(v) for v in pt.coords] for _, pt in traj.points] == [
        [bits(v) for v in pt.coords] for _, pt in want]


@pytest.mark.parametrize("orbit,steps,stride,settled", [
    ("REGULAR_FIXED", 3000, 1, 0),   # at mark 0
    ("REGULAR", 3000, 1, 11),        # at the fixed step 11
    ("REGULAR", 1001, 7, 2),         # inside a stride: at step 14
    ("REGULAR", 12, 5, 3),           # at the last mark, after a partial stride
    ("REGULAR", 11, 1, 11),          # at the last mark, not yet seen fixed
    ("KHUKR", 3000, 1, 3000),        # never
])
def test_csv_orbits_settle_where_they_are_meant_to(orbit, steps, stride, settled):
    t, x0 = ORBITS[orbit]
    traj = iterate(t, validate_point(x0), steps, stride)
    assert traj.settled == settled
    assert (traj.rows[settled:] == traj.rows[settled]).all()


def test_negative_zero_start_is_written_as_given():
    t = make("KHUKR")
    x0 = SimplexPoint((-0.0, 0.6, 0.4))
    text = "".join(cli._trajectory_csv(t, x0, 50, 1))
    assert text == oracle_csv(t, x0, 50, 1)
    assert text.splitlines()[1].startswith("0,-0,")


def test_repeated_rows_share_one_point():
    t, x0 = ORBITS["KHUKR"]
    traj = iterate(t, validate_point(x0), 12288)
    by_bits: dict[tuple, int] = {}
    # equal bits <-> the same point
    for _, pt in traj.points:
        key = tuple(bits(v) for v in pt.coords)
        assert by_bits.setdefault(key, id(pt)) == id(pt)
    assert len(set(by_bits.values())) == len(by_bits)
    assert len({id(pt) for _, pt in traj.points}) < 100


@pytest.mark.parametrize("m", [2, 3, 9, 17])
def test_cesaro_means_match_the_per_checkpoint_loop(m):
    """``cesaro`` renormalizes its means as one array, as the former loop did
    checkpoint by checkpoint."""
    rng = np.random.default_rng(m)
    t = random_tensor(rng, m)
    x0 = rng.exponential(size=m)
    x0 /= x0.sum()
    cps = [1, 2, 7, 100, 1000]
    means, _ = tensor.cesaro(t, x0, cps)
    acc, x, want = np.zeros(m), x0.copy(), []
    for n in range(1, cps[-1] + 1):
        acc += x
        x = _step(t._flat, x)
        if n in cps:
            mean = acc / n
            want.append(mean / mean.sum())
    assert means.tobytes() == np.array(want).tobytes()


def fake_block(rows):
    """A ``_collect`` that returns ``rows`` after the start row, at steps
    1, 2, ..., with its last row as the settled one."""
    def collect(t, x, n, stride):
        block = np.vstack([np.asarray(x, dtype=float)[None, :], rows])
        return np.arange(len(block)), block, len(block) - 1
    return collect


def test_zero_and_negative_zero_rows_stay_apart():
    rows = np.array([[0.0, 0.5, 0.5], [-0.0, 0.5, 0.5], [0.0, 0.5, 0.5], [-0.0, 0.5, 0.5]])
    t = make("KHUKR")
    x0 = validate_point([0.2, 0.4, 0.4])
    with mock.patch.object(tensor, "_collect", fake_block(rows)):
        traj = iterate(t, x0, 4)
        text = "".join(cli._trajectory_csv(t, x0, 4, 1))
    firsts = [math.copysign(1.0, pt.coords[0]) for _, pt in traj.points[1:]]
    assert firsts == [1.0, -1.0, 1.0, -1.0]
    assert traj.points[1][1] is traj.points[3][1]
    assert traj.points[2][1] is traj.points[4][1]
    assert traj.points[1][1] is not traj.points[2][1]
    assert [line.split(",")[1] for line in text.splitlines()[2:]] == ["0", "-0", "0", "-0"]


GOOD = [0.2, 0.3, 0.5]
NEGATIVE = [-0.25, 0.75, 0.5]       # NegativeCoordinate
LONG = [0.5, 0.5, 0.5]              # SumOutOfRange
NAN = [np.nan, 0.5, 0.5]            # QsoError, non-finite


@pytest.mark.parametrize("rows", [
    [GOOD, GOOD, NEGATIVE, LONG, NEGATIVE],
    [GOOD, LONG, GOOD, NEGATIVE, LONG],
    [NAN, NEGATIVE, LONG],
    [GOOD, GOOD, NEGATIVE, NAN],
    # the only bad row is the settled one
    [GOOD, GOOD, LONG],
])
def test_corrupted_block_raises_its_first_bad_row(rows):
    first_bad = next(r for r in rows if r is not GOOD)
    with pytest.raises(QsoError) as want:
        SimplexPoint(tuple(first_bad))
    t = make("KHUKR")
    with mock.patch.object(tensor, "_collect", fake_block(np.array(rows))):
        with pytest.raises(QsoError) as got:
            iterate(t, validate_point(GOOD), len(rows))
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def fake_rows(n, settled):
    """``n`` rows: two in turn before ``settled``, a third one from it on."""
    head = np.array([[0.2, 0.3, 0.5], [0.5, 0.3, 0.2]] * (settled // 2 + 1))[:settled]
    return np.vstack([head, np.tile([0.25, 0.25, 0.5], (n - settled, 1))])


def fake_trajectory_csv(steps, settled):
    """``cli._trajectory_csv`` of an orbit that records ``fake_rows`` at
    ``steps``, and the CSV of those rows with ``str(n)`` step numbers."""
    rows = fake_rows(len(steps), settled)

    def collect(t, x, n, stride):
        return np.array(steps, dtype=np.int64), rows, settled

    with mock.patch.object(tensor, "_collect", collect):
        got = "".join(cli._trajectory_csv(make("KHUKR"), validate_point(GOOD), 1, 1))
    want = "n,x1,x2,x3\n" + "".join(
        str(n) + "," + ",".join(format(v, ".17g") for v in row) + "\n"
        for n, row in zip(steps, rows.tolist()))
    return got, want


# 0, 10^18 and the int64 maximum, and every power of ten between with its neighbours
POWER_EDGES = sorted({n for k in range(19) for n in (10**k - 1, 10**k, 10**k + 1)}
                     | {0, 2**63 - 1})


@pytest.mark.parametrize("settled", [0, 31, len(POWER_EDGES) - 1])
def test_step_numbers_are_str_at_every_power_of_ten(settled):
    got, want = fake_trajectory_csv(POWER_EDGES, settled)
    assert got == want


def stepped(end, n, stride):
    """``n`` increasing steps ending at ``end``, ``stride`` apart but for a
    partial last stride."""
    steps = end - stride * np.arange(n - 1, -1, -1, dtype=np.int64)
    steps[:-1] += stride - max(1, stride // 2)
    return steps.tolist()


@pytest.mark.parametrize("head", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("tail", [1, BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("end,stride", [
    (lambda n: n - 1, 1),                 # the steps 0 to n - 1
    (lambda n: 10**12 + 5 * (n // 2), 5),  # from 12 to 13 digits halfway
    (lambda n: 2**63 - 1, 7),             # up to the int64 maximum
], ids=["from_0", "past_10^12", "to_int64_max"])
def test_step_numbers_across_text_blocks(head, tail, end, stride):
    got, want = fake_trajectory_csv(stepped(end(head + tail), head + tail, stride), head)
    assert got == want


@given(st.lists(st.integers(0, 2**63 - 1), unique=True, max_size=40).map(sorted),
       st.sampled_from(["\n", ",0.5,0.5\n", ",1,0,0\n"]))
def test_numbered_steps_match_str(steps, row):
    assert "".join(cli._numbered(np.array(steps, dtype=np.int64), row)) == "".join(
        str(n) + row for n in steps)


@given(st.floats(allow_nan=True, allow_infinity=True))
def test_percent_format_matches_format(v):
    assert "%.17g" % v == format(v, ".17g")


# --- contraction ---------------------------------------------------------------------


def old_contraction_report(m, perm, alpha, x0, blocks=64, diff_floor=1e-6,
                           max_entry_steps=200_000):
    t = make_alpha_combination(m, perm, alpha)
    s = perm.order
    bound = 1.0 - alpha + alpha ** s
    x = x0.array.copy()
    entered = -1
    for n in range(max_entry_steps + 1):
        if x[-1] < 0.5:
            entered = n
            break
        x = _step(t._flat, x)
    if entered < 0:
        raise NeverEntersRegion(
            f"last coordinate stayed >= 1/2 for {max_entry_steps} steps"
        )
    pairs = [(u, v) for u in range(m - 1) for v in range(u + 1, m - 1)]
    worst = None
    worst_pair = None
    measured = 0
    for _ in range(blocks):
        block = run_collect(t, x, s)
        x = block[-1]
        if np.any(block[:, -1] >= 0.5):
            continue
        start, end = block[0], block[-1]
        d0 = np.array([abs(start[u] - start[v]) for u, v in pairs])
        d1 = np.array([abs(end[u] - end[v]) for u, v in pairs])
        if d0.max() <= diff_floor:
            continue
        measured += 1
        factor = float(d1.max() / d0.max())
        if worst is None or factor > worst:
            worst = factor
        for k in range(len(pairs)):
            if d0[k] > diff_floor:
                pf = float(d1[k] / d0[k])
                if worst_pair is None or pf > worst_pair:
                    worst_pair = pf
    return analysis.ContractionReport(
        alpha=alpha, s=s, bound=bound, vacuous=(s == 1), entered_at=entered,
        blocks_measured=measured, worst_factor=worst,
        worst_single_pair_factor=worst_pair, diff_floor=diff_floor,
    )


def patched_contraction(args, blocks=64, diff_floor=analysis.CONTRACTION_DIFF_FLOOR,
                        max_entry_steps=analysis.CONTRACTION_MAX_ENTRY_STEPS):
    """``contraction_report`` with its module constants set to these values."""
    with mock.patch.multiple(analysis, CONTRACTION_DIFF_FLOOR=diff_floor,
                             CONTRACTION_MAX_ENTRY_STEPS=max_entry_steps):
        return analysis.contraction_report(*args, blocks=blocks)


def same_contraction(args, **kwargs):
    """The new report equals the old one to the bit (repr tells -0.0 from 0.0
    and round-trips every float)."""
    new = patched_contraction(args, **kwargs)
    assert repr(new) == repr(old_contraction_report(*args, **kwargs))
    return new


@pytest.mark.parametrize("seed", [7, 1])
@pytest.mark.parametrize("m", [3, 5])
def test_contraction_matches_the_per_block_loop_on_the_alpha_suite(seed, m):
    perm = _blend_config(m)
    measured = 0
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        starts = _interior_points(seed + 100 * m + int(10 * alpha), m, 50)
        for k in range(5):
            rep = same_contraction((m, perm, alpha, SimplexPoint(tuple(starts[k].tolist()))))
            measured += rep.blocks_measured
    assert measured > 0


@st.composite
def contraction_cases(draw):
    m = draw(st.integers(3, 8))
    perm = Permutation.from_images(draw(st.permutations(range(1, m))))
    alpha = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.exponential(size=m)
    if draw(st.booleans()):
        x[draw(st.lists(st.integers(0, m - 2), max_size=m - 2))] = 0.0
    if draw(st.booleans()):
        x[-1] += draw(st.floats(0.0, 3.0)) * x.sum()  # may start at or above 1/2
    x0 = validate_point(x / x.sum())
    kwargs = {"blocks": draw(st.integers(0, 70)),
              "diff_floor": draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.05])),
              "max_entry_steps": 300}
    return (m, perm, alpha, x0), kwargs


@settings(max_examples=150, deadline=None)
@given(contraction_cases())
def test_contraction_matches_the_per_block_loop(case):
    args, kwargs = case
    try:
        old_contraction_report(*args, **kwargs)
    except NeverEntersRegion:
        with pytest.raises(NeverEntersRegion):
            patched_contraction(args, **kwargs)
    else:
        same_contraction(args, **kwargs)


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=12))
def test_first_then_greater_matches_the_running_update(values):
    want = None
    for v in values:
        if want is None or v > want:
            want = v
    got = analysis._first_then_greater(np.array(values, dtype=float))
    assert (got is None and want is None) or bits(got) == bits(want)


def entering_at(n):
    """A start of the m=3, pi=(1 2), alpha=0.5 blend whose last coordinate
    first drops below 1/2 at step n (n = 0 or n >= 4): near the last vertex,
    where the other coordinates double at each step, n + 1 halvings away
    from it."""
    eps = 2.0 ** -(n + 1) if n else 0.25
    return (3, parse_cycles("(1 2)", 2), 0.5, SimplexPoint((eps, 2 * eps, 1 - 3 * eps)))


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_contraction_entry_on_either_side_of_a_block_boundary(offset):
    # None: entry at step 0; otherwise one step before, at or after the end
    # of the first collected block
    n = 0 if offset is None else analysis._ENTRY_BLOCK_STEPS + offset
    rep = same_contraction(entering_at(n))
    assert rep.entered_at == n


@pytest.mark.parametrize("offset", [0, 1])
def test_contraction_entry_at_the_step_limit(offset):
    limit = analysis._ENTRY_BLOCK_STEPS + offset
    rep = same_contraction(entering_at(limit), max_entry_steps=limit)
    assert rep.entered_at == limit
    for steps in (limit, 0):
        with pytest.raises(NeverEntersRegion, match=f"for {steps} steps"):
            patched_contraction(entering_at(limit + 1), max_entry_steps=steps)


def test_contraction_start_that_never_enters():
    # the last coordinate settles at exactly 1/2 under the quasi-strict map
    x0 = SimplexPoint((0.1588, 0.0456, 0.7956))
    with pytest.raises(NeverEntersRegion, match="for 200000 steps"):
        analysis.contraction_report(3, parse_cycles("", 2), 0.0, x0)


@pytest.mark.parametrize("bad", [-1, 2.5, "3"])
def test_contraction_rejects_a_bad_block_count(bad):
    x0 = validate_point([0.3, 0.3, 0.4])
    with pytest.raises(QsoError, match="blocks"):
        analysis.contraction_report(3, parse_cycles("(1 2)", 2), 0.5, x0, blocks=bad)


# --- invariant sets ------------------------------------------------------------------


def old_check_invariant_set(t, spec, samples, horizon, seed):
    rng = np.random.default_rng(seed)
    max_initial = 0.0
    max_defect = 0.0
    for _ in range(samples):
        x = spec.sample(rng)
        if x.shape != (t.m,):
            raise InapplicableSet(f"{spec.id} samples dimension {x.shape[0]}, tensor m={t.m}")
        d0 = spec.defect(x)
        if not d0 <= 1e-12:
            raise InapplicableSet(f"sampler produced defect {d0!r}, not <= 1e-12")
        max_initial = max(max_initial, d0)
        for _ in range(horizon):
            x = _step(t._flat, x)
            max_defect = max(max_defect, spec.defect(x))
    return analysis.InvariantSetReport(spec.id, samples, horizon, max_initial, max_defect)


def invariant_outcome(check, *args):
    """The report's repr, or the message of the refusal."""
    try:
        return repr(check(*args))
    except InapplicableSet as exc:
        return f"InapplicableSet: {exc}"


def same_invariant_report(*args):
    assert (invariant_outcome(check_invariant_set, *args)
            == invariant_outcome(old_check_invariant_set, *args))


def catalog_invariant_cases():
    """The invariant-set checks of tests/test_analysis.py."""
    qs4 = make_quasi_strict(4, parse_cycles("(1 2 3)", 3))
    perm5, perm6 = parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 2)(3 4 5)", 5)
    return [
        (qs4, m0_set(4), 100, 30, 10),
        (make_s2("KHUKR"), khukr_m_tau(1.5), 100, 50, 11),
        (make_quasi_strict(5, perm5), m_omega_set(5, perm5, 1, 2, 2.0), 100, 50, 12),
        (make_quasi_strict(6, perm6), m_omega_set(6, perm6, 1, 2, 2.0), 50, 30, 13),
        (make_s2("VALLANDER_THETA", 0.6), vallander_diag(), 100, 50, 14),
    ]


@pytest.mark.parametrize("case", range(5))
def test_invariant_set_matches_the_per_step_loop_on_the_catalog(case):
    same_invariant_report(*catalog_invariant_cases()[case])


def diag_with_nan_defects():
    """The planar diagonal, with a NaN defect wherever x1 > 0.3: a NaN start
    is refused, and a later NaN keeps or loses its place in the running max
    depending on when it comes."""
    diag = vallander_diag()
    def defect(x):
        return float("nan") if x[0] > 0.3 else diag.defect(x)
    return InvariantSetSpec("NAN_DIAG", (), defect, diag.sample)


@st.composite
def invariant_cases(draw):
    spec = draw(st.sampled_from(["m0", "khukr", "m_omega", "diag", "nan_diag"]))
    if spec == "m0":
        m = draw(st.integers(3, 8))
        spec = m0_set(m)
    elif spec == "m_omega":
        m = 6
        spec = m_omega_set(m, parse_cycles("(1 2)(3 4 5)", 5), 1, 2,
                           draw(st.sampled_from([0.5, 1.0, 2.0])))
    else:
        m = 3
        spec = {"khukr": khukr_m_tau(draw(st.sampled_from([0.5, 1.5]))),
                "diag": vallander_diag(), "nan_diag": diag_with_nan_defects()}[spec]
    # a random tensor has no family spec, so every set applies to it
    t = random_tensor(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), m)
    return (t, spec, draw(st.integers(1, 20)), draw(st.integers(1, 60)),
            draw(st.integers(0, 2**16)))


@settings(max_examples=60, deadline=None)
@given(invariant_cases())
def test_invariant_set_matches_the_per_step_loop(case):
    same_invariant_report(*case)
