"""Cesaro kernels at coordinate vectors, Lebesgue-constant sweeps, growth
classification, and the envelope checks behind the kernel estimates."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from fractions import Fraction

import numpy as np
import pytest

from dunklsym import simplexquad, summability
from dunklsym.harmonics import (
    _zn_values,
    build_sphere_rule,
    hharmonic_basis,
    hweight,
    norm_const_a,
    repro_kernel_axis,
)
from dunklsym.intertwine import AxisFunction, polynomial_rule, vk_axis, vk_sphere_average
from dunklsym.orthopoly import (
    JacobiParams,
    cesaro_kernel_endpoint,
    cesaro_weights,
    jacobi_eval,
    jacobi_rows,
    kernel_normalizer,
)
from dunklsym.polycore import KappaParams
from dunklsym.simplexquad import SelfCheckError, build_rule
from dunklsym.summability import (
    BOUNDED_POWER_THRESHOLD,
    _axis_kernel_table,
    _envelope_sum,
    _fit_models,
    cesaro_kernel_axis,
    cesaro_mean_at_axis,
    check_sweep,
    classify_growth,
    critical_sweep,
    default_sample_points,
    estimate_check,
    kernel_bound_check,
    knd_positivity_check,
    lebesgue_constant,
    lebesgue_sweep,
)

KP31 = KappaParams(3, 1)
SPHERE3 = build_sphere_rule(3, 24)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_kernel_axis_degree_zero_and_validation():
    x = unit([0.3, -0.5, 0.8])
    for delta in (0.0, 1.5, 4.0):
        assert abs(cesaro_kernel_axis(0, delta, 2, x, KP31) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        cesaro_kernel_axis(3, 1.0, 1, np.array([0.5, 0.5, 0.5]), KP31)
    with pytest.raises(ValueError):
        cesaro_kernel_axis(3, 1.0, 4, x, KP31)
    with pytest.raises(ValueError):
        cesaro_kernel_axis(3, 1.0, 1, x[:2], KP31)


def test_delta_zero_is_partial_sum_of_projections():
    rng = np.random.default_rng(50)
    for _ in range(3):
        x = unit(rng.normal(size=3))
        want = sum(repro_kernel_axis(k, 1, x, KP31) for k in range(7))
        got = cesaro_kernel_axis(6, 0.0, 1, x, KP31)
        assert abs(got - want) <= 1e-7 * max(1.0, abs(want))


def test_kappa_zero_reduces_to_one_variable_kernel():
    kp0 = KappaParams(3, 0)
    jp = JacobiParams(0.0, 0.0)  # lambda = 1/2 at kappa = 0, d = 3
    x = unit([0.2, 0.9, -0.3])
    for n, delta in ((4, 0.5), (9, 2.0)):
        got = cesaro_kernel_axis(n, delta, 2, x, kp0)
        want = cesaro_kernel_endpoint(n, jp, delta, float(x[1]))
        assert got == want


def test_cesaro_mean_reproduces_constants():
    for n, delta in ((3, 0.5), (10, 2.0)):
        val = cesaro_mean_at_axis(lambda X: np.ones(len(X)), n, delta, 1,
                                  KP31, SPHERE3)
        assert abs(val - 1.0) < 1e-10


def test_lebesgue_constant_record():
    rec = lebesgue_constant(0, 1.0, 1, KP31, SPHERE3)
    assert abs(rec.value - 1.0) < 1e-10
    assert rec.quad_error_estimate < 1e-10
    assert (rec.d, rec.kappa, rec.ell, rec.n, rec.delta) == (3, 1.0, 1, 0, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.value = 2.0


def test_sweep_matches_direct_evaluation():
    # the moment-table engine against the one-shot path, on the exact
    # branch (integer kappa at d = 3 and 4, kappa = 0) and the tensor branch
    for params, order in ((KP31, 24), (KappaParams(2, Fraction(3, 2)), 24),
                          (KappaParams(3, 0), 24), (KappaParams(4, 1), 10)):
        records = lebesgue_sweep(params, [1.5], 5, sphere_order=order)
        sphere = build_sphere_rule(params.d, order, kappa_hint=params.kappa)
        for rec in records:
            direct = lebesgue_constant(rec.n, 1.5, 1, params, sphere)
            assert abs(rec.value - direct.value) <= 1e-9 * max(1.0, direct.value)


def table_points(d):
    """The axes, the all-equal point, a point with two equal coordinates and
    random points, all on S^(d-1): repeated coordinates are repeated
    divided-difference points."""
    generic = np.random.default_rng(53).normal(size=(9, d))
    rows = [*np.eye(d), np.ones(d), np.r_[0.5, 0.5, -np.ones(d - 2)], *generic]
    return np.array([unit(row) for row in rows])


@pytest.mark.parametrize("d, kappa, n_max, order", [
    (3, 1, 10, 8), (3, 2, 10, 8), (4, 1, 10, 8), (3, 0, 10, 8), (4, 0, 10, 8),
    (2, 1, 10, 8), (4, Fraction(1, 2), 10, 8), (3, Fraction(1, 3), 10, 8),
    (2, Fraction(3, 2), 24, 32), (3, Fraction(1, 2), 24, 32),
    (3, Fraction(1, 3), 24, 32), (4, Fraction(1, 2), 24, 32),
], ids=["exact-3-1", "exact-3-2", "exact-4-1", "exact-3-0", "exact-4-0", "tensor-2-1",
        "tensor-4-1/2", "tensor-3-1/3", "tensor-2-3/2-n24", "tensor-3-1/2-n24",
        "tensor-3-1/3-n24", "tensor-4-1/2-n24"])
def test_table_matches_reproducing_kernel(d, kappa, n_max, order):
    # every row of the table against the reproducing-kernel profile on a
    # simplex rule of higher order than the table's own polynomial_rule
    params = KappaParams(d, kappa)
    X = table_points(d)
    rule = build_rule(d, float(kappa), order)
    lam = float(params.lambda_kappa)
    for ell in range(1, d + 1):
        B = _axis_kernel_table(n_max, ell, params, X)
        for k in range(n_max + 1):
            profile = AxisFunction(ell=ell, profile=lambda s: _zn_values(k, lam, s))
            want = vk_axis(profile, X, params, rule)
            tol = 1e-11 * max(1.0, np.max(np.abs(B[k])))
            assert np.max(np.abs(B[k] - want)) <= tol, (ell, k)


# a block budget under which every table and reduction is one block
ONE_BLOCK = 10**12


@pytest.mark.parametrize("params", [KP31, KappaParams(2, Fraction(3, 2))],
                         ids=["exact", "tensor"])
def test_table_chunking_is_bit_identical(params, monkeypatch):
    # the same table from one chunk and from many
    sphere = build_sphere_rule(params.d, 24, kappa_hint=params.kappa)
    if params.d == 3:
        one = _axis_kernel_table(12, 1, params, sphere.nodes)
        monkeypatch.setattr(simplexquad, "CHUNK_ELEMENTS", 1)  # one node per chunk
        assert np.array_equal(one, _axis_kernel_table(12, 1, params, sphere.nodes))
        return
    # tensor blocks of sphere nodes on an odd node count: blocks of two, whose
    # last takes the remainder of one (numpy computes a one-row node product
    # by a matrix-vector call whose last bit can differ from the matrix
    # product's), then a few larger blocks
    X = sphere.nodes[:-1]
    assert len(X) % 2 == 1
    monkeypatch.setattr(simplexquad, "BLOCK_ELEMENTS", ONE_BLOCK)
    one = _axis_kernel_table(12, 1, params, X)
    seen = []

    def rows(n_max, jp, t):
        seen.append(len(t))
        return jacobi_rows(n_max, jp, t)

    monkeypatch.setattr(summability, "jacobi_rows", rows)
    monkeypatch.setattr(simplexquad, "BLOCK_ELEMENTS", 1)
    assert np.array_equal(one, _axis_kernel_table(12, 1, params, X))
    assert seen == [2] * (len(X) // 2 - 1) + [3]
    seen.clear()
    monkeypatch.setattr(simplexquad, "BLOCK_ELEMENTS", 2**10)
    assert np.array_equal(one, _axis_kernel_table(12, 1, params, X))
    assert 3 <= len(seen) < len(X) // 2


def test_sweep_order_progress_and_rerun():
    seen = []
    records = lebesgue_sweep(KP31, [2.0, 1.0], 4, sphere_order=16,
                             progress=seen.append)
    assert records == seen
    assert [(r.delta, r.n) for r in records] == \
        [(d, n) for d in (2.0, 1.0) for n in range(1, 5)]
    again = lebesgue_sweep(KP31, [2.0, 1.0], 4, sphere_order=16)
    assert [r.value for r in again] == [r.value for r in records]


def unstreamed_sweep(params, deltas, n_max, ell, order, sphere_rule=build_sphere_rule):
    """(value, estimate) per (delta, n), from whole tables: every sphere
    node's kernel row at once, as the sweep computed before it streamed."""

    def values(sphere_order):
        sphere = sphere_rule(params.d, sphere_order, kappa_hint=params.kappa)
        B = _axis_kernel_table(n_max, ell, params, sphere.nodes)
        wh2 = params.a_kappa * sphere.weights * hweight(sphere.nodes, params) ** 2
        out = {}
        for delta in deltas:
            W = np.zeros((n_max + 1, n_max + 1))
            for n in range(n_max + 1):
                W[n, : n + 1] = cesaro_weights(n, delta)
            out[delta] = np.abs(W @ B) @ wh2
        return out

    main = values(order)
    coarse = values(summability.coarse_sphere_order(order))
    return [(float(main[delta][n]), float(abs(main[delta][n] - coarse[delta][n])))
            for delta in deltas for n in range(1, n_max + 1)]


STREAM_CASES = [(KP31, 12, 24), (KappaParams(3, Fraction(1, 2)), 8, 24),
                (KappaParams(4, 1), 6, 12)]
STREAM_IDS = ["exact-3-1", "tensor-3-1/2", "exact-4-1"]


def odd_sphere_rule(d, order, kappa_hint=None):
    """The sphere rule's first half, its first node split in two of half its
    weight where the half has an even count, and the reflection of that: a
    hemisphere of an odd node count, so that blocks of two rows or columns
    leave a remainder of one, in a rule that integrates what the sphere rule
    does (the sweep checks its h^2 mass at integer kappa)."""
    rule = build_sphere_rule(d, order, kappa_hint=kappa_hint)
    half = len(rule) // 2
    nodes, weights = rule.nodes[:half], rule.weights[:half]
    if half % 2 == 0:
        nodes = np.concatenate([nodes[:1], nodes])
        weights = np.concatenate([weights[:1] / 2, weights[:1] / 2, weights[1:]])
    return dataclasses.replace(rule, nodes=np.concatenate([nodes, -nodes]),
                               weights=np.concatenate([weights, weights]))


def odd_sphere_blocks(d, order, kappa_hint, per_node, slices, hemisphere):
    assert hemisphere
    rule = odd_sphere_rule(d, order, kappa_hint)
    return [(rule.nodes[: len(rule) // 2], rule.weights[: len(rule) // 2])]


def assert_records_near(records, want):
    """Records within 1e-14 of the values they estimate: a sweep walks a
    hemisphere and reflects it, which regroups the whole rule's sums."""
    for rec, (value, estimate) in zip(records, want, strict=True):
        assert abs(rec.value - value) <= 1e-14 * value
        assert abs(rec.quad_error_estimate - estimate) <= 1e-14 * value


@pytest.mark.parametrize("params, n_max, order", STREAM_CASES, ids=STREAM_IDS)
def test_one_chunk_sweep_is_the_unstreamed_sweep(params, n_max, order, monkeypatch):
    sphere = build_sphere_rule(params.d, order, kappa_hint=params.kappa)
    assert len(simplexquad.chunk_slices(len(sphere) // 2, 3 * (n_max + 1))) == 1
    records = lebesgue_sweep(params, [1.0, 1.37, 2.5], n_max, sphere_order=order)
    assert_records_near(records, unstreamed_sweep(params, [1.0, 1.37, 2.5], n_max, 1, order))
    # blocks of the tensor table's rows and of the reduction's columns
    # against one block each, on hemispheres of an odd node count: blocks
    # of two whose last takes the remainder of one, then blocks of 20 table
    # rows and 64, 128 or 256 columns
    # the sweep takes each odd hemisphere as one block, as it takes a rule
    # a caller built
    monkeypatch.setattr(summability, "sphere_rule_blocks", odd_sphere_blocks)
    monkeypatch.setattr(simplexquad, "BLOCK_ELEMENTS", ONE_BLOCK)
    want = lebesgue_sweep(params, [1.0, 1.37, 2.5], n_max, sphere_order=order)
    assert_records_near(want, unstreamed_sweep(params, [1.0, 1.37, 2.5], n_max, 1, order,
                                               odd_sphere_rule))
    for budget in (1, 2**12):
        monkeypatch.setattr(simplexquad, "BLOCK_ELEMENTS", budget)
        assert lebesgue_sweep(params, [1.0, 1.37, 2.5], n_max, sphere_order=order) == want


def test_reduction_blocks_keep_the_bits_past_n_max_13(monkeypatch):
    # with 14 or more terms per entry, OpenBLAS can round the columns of a
    # block that does not start on a multiple of its kernel's unrolling
    # differently from one product; blocks of 163 columns (2 (n_max + 1)
    # elements a column, not rounded to a power of two) moved six records.
    # The even-degree product has n_max // 2 + 1 terms per entry; at n_max
    # 40, blocks of 16, 64 and 256 columns not rounded to a power of two
    # (19, 76 and 304) moved records.
    monkeypatch.setattr(simplexquad, "BLOCK_ELEMENTS", ONE_BLOCK)
    want = lebesgue_sweep(KP31, [1.0, 1.37, 2.5], 40, sphere_order=48)
    for budget in (2**13, 2**15, 2**17):  # blocks of 16, 64 and 256 columns
        monkeypatch.setattr(simplexquad, "BLOCK_ELEMENTS", budget)
        assert lebesgue_sweep(KP31, [1.0, 1.37, 2.5], 40, sphere_order=48) == want


@pytest.mark.parametrize("params, n_max", [(KP31, 40), (KappaParams(3, Fraction(1, 2)), 8)],
                         ids=["exact-3-1", "tensor-3-1/2"])
def test_stacked_deltas_are_the_one_delta_sweeps(params, n_max):
    # every delta's Cesaro weights share one product pair; a wrong row offset
    # in the stacked matrix would hand one delta another's kernels
    deltas = [2.5, 1.0, 1.37, 0.5]
    together = lebesgue_sweep(params, deltas, n_max)
    alone = [rec for delta in deltas for rec in lebesgue_sweep(params, [delta], n_max)]
    for rec, want in zip(together, alone, strict=True):
        assert (rec.delta, rec.n) == (want.delta, want.n)
        assert abs(rec.value - want.value) <= 1e-15 * want.value
        assert abs(rec.quad_error_estimate - want.quad_error_estimate) <= 1e-15 * want.value


@pytest.mark.parametrize("params, n_max", [(KP31, 12), (KappaParams(3, Fraction(1, 2)), 8)],
                         ids=["exact-3-1", "tensor-3-1/2"])
def test_one_column_remainder_segment_keeps_the_bits(params, n_max, monkeypatch):
    # at order 16 the odd hemisphere has 16^2 + 1 = 257 nodes (exact) or 11 *
    # 16^2 + 1 = 2817 (the kink rule): full segments and a last of one column,
    # whose products numpy runs as matrix-vector calls under every budget
    half = len(odd_sphere_rule(params.d, 16, params.kappa)) // 2
    assert half % summability.SEGMENT_COLUMNS == 1
    monkeypatch.setattr(summability, "sphere_rule_blocks", odd_sphere_blocks)
    monkeypatch.setattr(simplexquad, "BLOCK_ELEMENTS", ONE_BLOCK)
    want = lebesgue_sweep(params, [1.0, 2.5], n_max, sphere_order=16)
    assert_records_near(want, unstreamed_sweep(params, [1.0, 2.5], n_max, 1, 16,
                                               odd_sphere_rule))
    for budget in (1, 2**12, 2**14):
        monkeypatch.setattr(simplexquad, "BLOCK_ELEMENTS", budget)
        assert lebesgue_sweep(params, [1.0, 2.5], n_max, sphere_order=16) == want


def test_default_order_integrates_h2_at_integer_kappa():
    # the smallest order from n_max + 16 whose coarse rule, exact to degree
    # 2 coarse - 1, integrates h^2 of degree d (d - 1) kappa; fractional
    # kappa and every integer kappa already covered keep n_max + 16
    for d, kappa, n_max in [(2, 1, 1), (2, 50, 8), (3, 0, 8), (3, 1, 1), (3, 1, 64),
                            (3, 3, 1), (3, 4, 1), (3, 10, 8), (3, 50, 8), (4, 1, 4),
                            (4, 10, 8), (3, Fraction(1, 2), 8), (3, Fraction(7, 2), 8)]:
        params = KappaParams(d, kappa)
        order = n_max + 16
        while kappa == int(kappa) and (2 * summability.coarse_sphere_order(order) - 1
                                       < d * (d - 1) * kappa):
            order += 1
        assert summability.default_sphere_order(n_max, params) == order, (d, kappa, n_max)
    assert summability.default_sphere_order(8, KappaParams(3, 10)) == 42
    assert summability.default_sphere_order(8, KappaParams(3, 50)) == 202
    assert summability.default_sphere_order(8, KappaParams(4, 10)) == 82


@pytest.mark.parametrize("order", [24, 36], ids=["both-rules", "coarse-rule"])
def test_sweep_refuses_a_rule_that_misses_the_h2_mass(order):
    # at (3, 10), h^2 has degree 60: order 24 integrates it on neither rule
    # (I_0 - 1 = -2.9e-6 and -1.1e-3), order 36 on the main rule alone (its
    # coarse rule has order 27); order 42, the default, on both
    params = KappaParams(3, 10)
    records = []
    with pytest.raises(SelfCheckError, match="h\\^2 mass .* order 42 does"):
        lebesgue_sweep(params, [1.0], 8, sphere_order=order, progress=records.append)
    assert records == []
    records = lebesgue_sweep(params, [1.0], 8)
    assert all(math.isfinite(rec.value) for rec in records)


@pytest.mark.parametrize("kappa, overflows", [(200, False), (230, True), (250, True),
                                              (300, True)], ids=str)
def test_exact_table_overflow_is_refused(kappa, overflows):
    # the divided differences of the shifted Jacobi recurrence pass float
    # range from about kappa 230 at d = 3 (at step 692 of 693 there); kappa
    # 300's row factors are still normal floats, so check_sweep passes it
    params = KappaParams(3, kappa)
    check_sweep(params, [1.0], 3, 1)
    X = build_sphere_rule(3, 19).nodes[192:256]  # 32 of them overflow at kappa 230
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if overflows:
            with pytest.raises(OverflowError, match=f"kappa = {kappa} at d = 3"):
                _axis_kernel_table(3, 1, params, X)
        else:
            assert np.isfinite(_axis_kernel_table(3, 1, params, X)).all()


@pytest.mark.parametrize("params, n_max, order", STREAM_CASES, ids=STREAM_IDS)
def test_streamed_sweep_matches_the_unstreamed_sweep(params, n_max, order, monkeypatch):
    # a chunk budget that splits the main rule's hemisphere into at least
    # three chunks; no table is ever built on more nodes than one chunk
    want = unstreamed_sweep(params, [1.0, 2.5], n_max, 2, order)
    half = len(build_sphere_rule(params.d, order, kappa_hint=params.kappa)) // 2
    per_row = 3 * (n_max + 1)
    monkeypatch.setattr(simplexquad, "CHUNK_ELEMENTS", per_row * (half // 3))
    assert len(simplexquad.chunk_slices(half, per_row)) >= 3
    seen = []

    def table(n_max, ell, params, X, table_scale):
        seen.append(len(X))
        return _axis_kernel_table(n_max, ell, params, X, table_scale)

    monkeypatch.setattr(summability, "_axis_kernel_table", table)
    records = lebesgue_sweep(params, [1.0, 2.5], n_max, 2, sphere_order=order)
    assert len(seen) >= 4 and max(seen) <= half // 3
    assert_records_near(records, want)


@pytest.mark.parametrize("params, order", [
    (KappaParams(2, 1), 13), (KappaParams(2, Fraction(1, 2)), 13),
    (KappaParams(3, Fraction(1, 3)), 23), (KappaParams(3, 1), 25),
], ids=["d2-13", "d2-split-13", "d3-kink-23", "d3-25"])
def test_odd_order_sweep_matches_the_whole_rule(params, order):
    # at an odd order the middle row (the circle's arc, the equator) is cut
    # between the two halves of the rule
    records = lebesgue_sweep(params, [1.0, 2.5], 8, 1, sphere_order=order)
    assert_records_near(records, unstreamed_sweep(params, [1.0, 2.5], 8, 1, order))


@pytest.mark.parametrize("params", [KP31, KappaParams(4, 1), KappaParams(3, Fraction(1, 2))],
                         ids=["exact-3-1", "exact-4-1", "tensor-3-1/2"])
def test_table_rows_have_the_parity_of_their_degree(params):
    # P_k(-x, e_ell) = (-1)^k P_k(x, e_ell): the sweep's reflected half
    X = table_points(params.d)
    for ell in (1, params.d):
        B = _axis_kernel_table(12, ell, params, X)
        reflected = _axis_kernel_table(12, ell, params, -X)
        for k in range(13):
            tol = 1e-14 * np.max(np.abs(B[k]))
            assert np.max(np.abs(reflected[k] - (-1) ** k * B[k])) <= tol, (ell, k)


@pytest.mark.parametrize("params", [KP31, KappaParams(3, Fraction(1, 2))], ids=["exact", "tensor"])
def test_sweep_computes_the_table_scale_once(params, monkeypatch):
    # one kernel_normalizer call in check_sweep and one that every chunk's
    # table shares, however many chunks the two rules take
    calls, tables = [], []
    real_normalizer, real_table = summability.kernel_normalizer, _axis_kernel_table

    def normalizer(*args):
        calls.append(args)
        return real_normalizer(*args)

    def table(*args):
        tables.append(args)
        return real_table(*args)

    monkeypatch.setattr(summability, "kernel_normalizer", normalizer)
    monkeypatch.setattr(summability, "_axis_kernel_table", table)
    monkeypatch.setattr(simplexquad, "CHUNK_ELEMENTS", 3 * 9 * 50)
    lebesgue_sweep(params, [1.0], 8, sphere_order=16)
    assert len(tables) >= 6 and len(calls) <= 2


@pytest.mark.parametrize("call, bound_mb", [
    # streamed sphere-node chunks: whole tables peaked at 214 MB; a streamed
    # sphere rule as well: 58.7 MB, where the built 221 184-node rule
    # peaked at 62.3 MB
    ("lebesgue_sweep(KappaParams(4, 1), [4.0], 32)", 61),
    # cache-sized blocks of the tensor table: whole-chunk temporaries peaked
    # at 193 MB, the blocks at 47 MB
    ("lebesgue_sweep(KappaParams(3, Fraction(1, 2)), [0.5, 1.0, 1.5], 24)", 80),
    # integer kappa: the Gram step and its check read exact sphere moments,
    # 34.6 MB; the order-48 check rule streamed peaked at 41.7 MB, and built
    # whole, a 221 184-node rule, at 47.7 MB
    ("hharmonic_basis(2, KappaParams(4, 1), build_sphere_rule(4, 24, kappa_hint=1))", 44),
], ids=["d4-exact", "d3-tensor", "d4-hbasis"])
def test_sweep_memory_in_a_fresh_process(call, bound_mb):
    # Linux carries the parent's peak into the child's ru_maxrss across fork
    # and exec, so there the child reads the peak of its own address space.
    code = f"""
import resource, sys
from fractions import Fraction
from dunklsym import KappaParams, build_sphere_rule, hharmonic_basis, lebesgue_sweep
{call}
try:
    with open("/proc/self/status") as status:
        kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    print(kib / 1024)
except (OSError, StopIteration):
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss: bytes or KiB
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit / 2**20)
"""
    pytest.importorskip("resource")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert float(out.stdout.split()[-1]) < bound_mb, out.stdout


def test_sweep_records_do_not_depend_on_blas_threads():
    # OpenBLAS threads some products by their shape; one matrix-vector
    # reduction over a whole chunk (32 768 columns here) moved 2 of these 64
    # records between one thread and two, reductions over segments of
    # SEGMENT_COLUMNS none
    code = ("from dunklsym import KappaParams, lebesgue_sweep; "
            "print(lebesgue_sweep(KappaParams(4, 1), [0.5, 1, 1.5, 2.5], 16, 4))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        runs.append(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                   text=True, check=True).stdout)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("params, deltas, n_max, ell, order", [
    (KappaParams(5, 1), [1.5], 3, 1, None),  # no sphere rule for d = 5
    (KP31, [1.5], 0, 1, None),               # no degree to sweep
    (KP31, [1.5], 3, 4, None),               # axis outside 1..d
    (KP31, [1.5], 3, 0, None),
    (KP31, [-1.0], 3, 1, None),              # Cesaro order must exceed -1
    (KP31, [1.5], 3, 1, 3),                  # sphere order below the floor
    (KappaParams(4, Fraction(1, 2)), [1.5], 3, 1, None),  # no kink split on S^3
    (KP31, [math.inf], 3, 1, None),          # Cesaro order must be finite
])
def test_sweep_refuses_bad_arguments(params, deltas, n_max, ell, order):
    with pytest.raises(ValueError):
        lebesgue_sweep(params, deltas, n_max, ell, sphere_order=order)


@pytest.mark.parametrize("kappa, runs", [
    (Fraction(401, 2), True), (Fraction(501, 2), False),  # tensor table: the rule's mass
    (300, True), (350, False), (400, False),               # exact table: its row factors
], ids=str)
def test_sweep_refuses_a_kappa_out_of_float_range(kappa, runs):
    # at d = 3 the simplex mass Gamma(kappa)^3 / Gamma(3 kappa) underflows
    # past kappa = 214.03, and the exact table's factor N! prod_j 2 / (k +
    # 2 alpha + 1 - j) is 6.3e-270 at kappa = 300 and subnormal at 350
    params = KappaParams(3, kappa)
    if runs:
        check_sweep(params, [1.0], 3, 1)
    else:
        with pytest.raises(OverflowError, match="not a normal float"):
            check_sweep(params, [1.0], 3, 1)


@pytest.mark.parametrize("kappa", [1, 2, 100, 300, 320, 340])
def test_exact_table_row_factors_keep_their_digits(kappa):
    # the product N! prod_j 2 / (k + 2 alpha + 1 - j) passes through
    # subnormal partial products from about kappa 295 at d = 3; the factors
    # must still match the log-Gamma form and rise with k, as the exact
    # factors do, and keep the plain loop's bits where it stays normal
    params = KappaParams(3, kappa)
    alpha, N = 3 * kappa, 3 * kappa
    exact, scale = summability._table_scale(8, params)
    assert exact
    base = kernel_normalizer(8, JacobiParams(alpha, alpha))
    logs = [math.lgamma(N + 1) + N * math.log(2) + math.lgamma(k + 2 * alpha + 1 - N)
            - math.lgamma(k + 2 * alpha + 1) for k in range(9)]
    np.testing.assert_allclose(scale, base * np.exp(logs), rtol=1e-10)
    assert np.all(np.diff(scale) > 0)
    if kappa <= 100:
        plain = base.copy()
        for j in range(1, N + 1):
            plain = plain * (2 * j / (np.arange(9) + 2 * alpha + 1 - j))
        assert np.array_equal(scale, plain)


# every function that integrates a weight on a sphere rule it is handed
SPHERE_CONSUMERS = {
    "norm_const_a": lambda params, rule: norm_const_a(params, rule),
    "hharmonic_basis": lambda params, rule: hharmonic_basis(2, params, rule),
    "lebesgue_constant": lambda params, rule: lebesgue_constant(3, 1.5, 1, params, rule),
    "cesaro_mean_at_axis": lambda params, rule: cesaro_mean_at_axis(
        lambda X: X[:, 0], 3, 1.5, 1, params, rule),
    "vk_sphere_average": lambda params, rule: vk_sphere_average(
        lambda t: t ** 2, np.eye(params.d)[0], params, rule),
}
# (params, d, kappa hint) of a rule that does not fit the params' weight
MISFITS = {
    "wrong-d": (KP31, 2, None),
    "flat-at-1/2": (KappaParams(3, Fraction(1, 2)), 3, None),
    "split-at-1": (KP31, 3, Fraction(1, 2)),
    "d4-flat-at-1/2": (KappaParams(4, Fraction(1, 2)), 4, None),
}


@pytest.mark.parametrize("misfit", sorted(MISFITS))
@pytest.mark.parametrize("consumer", sorted(SPHERE_CONSUMERS))
def test_sphere_consumer_refuses_a_rule_that_does_not_fit_the_weight(consumer, misfit):
    params, d, hint = MISFITS[misfit]
    rule = build_sphere_rule(d, 8, kappa_hint=hint)
    with pytest.raises(ValueError, match="sphere rule"):
        SPHERE_CONSUMERS[consumer](params, rule)


def test_lebesgue_constant_refuses_an_order_with_no_coarser_rule(monkeypatch):
    # coarse_sphere_order(5) is 5: refused before any kernel or second rule
    def no_work(*args, **kwargs):
        raise AssertionError("lebesgue_constant worked on a refused order")

    rule = build_sphere_rule(3, 5)
    monkeypatch.setattr(summability, "cesaro_kernel_axis", no_work)
    monkeypatch.setattr(summability, "build_sphere_rule", no_work)
    with pytest.raises(ValueError, match="sphere order must be >= 6"):
        lebesgue_constant(3, 1.5, 1, KP31, rule)


@pytest.mark.parametrize("poisoned", ["main", "coarse"])
def test_sweep_with_a_non_finite_sum_fails_before_any_record(monkeypatch, poisoned):
    real = summability._sweep_values
    calls = []

    def values(*args):
        out = real(*args)
        calls.append(args)
        if len(calls) == ["main", "coarse"].index(poisoned) + 1:
            out[1.5][2] = np.nan
        return out

    monkeypatch.setattr(summability, "_sweep_values", values)
    records = []
    with pytest.raises(SelfCheckError, match="not finite"):
        lebesgue_sweep(KP31, [1.0, 1.5], 4, sphere_order=12, progress=records.append)
    assert len(calls) == 2 and records == []


@pytest.mark.parametrize("params", [KappaParams(3, 0), KappaParams(3, Fraction(1, 2)), KP31])
def test_batched_kernels_match_per_row(params):
    rng = np.random.default_rng(52)
    X = rng.normal(size=(7, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    rule = build_rule(3, params.kappa_float, 32)
    calls = {
        "cesaro": lambda x: cesaro_kernel_axis(9, 1.5, 2, x, params),
        "repro": lambda x: repro_kernel_axis(6, 3, x, params),
        "vk_axis": lambda x: vk_axis(AxisFunction(ell=1, profile=np.exp), x, params, rule),
    }
    for name, call in calls.items():
        batch = call(X)
        assert batch.shape == (7,), name
        for x, value in zip(X, batch):
            one = call(x)
            assert np.ndim(one) == 0, name
            assert abs(value - one) <= 1e-13 * max(1.0, abs(one)), name
    off = X.copy()
    off[4] *= 1.01  # one row off the sphere fails the whole batch
    nan = X.copy()
    nan[2, 0] = np.nan  # so does a NaN row, batched or alone
    for name in ("cesaro", "repro"):
        for bad in (off, nan, nan[2]):
            with pytest.raises(ValueError, match="sphere"):
                calls[name](bad)


AXIS_TAKERS = {
    "lebesgue_constant": lambda ell: lebesgue_constant(3, 1.5, ell, KP31, SPHERE3),
    "cesaro_mean_at_axis": lambda ell: cesaro_mean_at_axis(
        lambda X: X[:, 0], 3, 1.5, ell, KP31, SPHERE3),
    "estimate_check": lambda ell: estimate_check(
        16, KP31, 2.5, 2.5, default_sample_points(3), ell=ell),
    "kernel_bound_check": lambda ell: kernel_bound_check(
        16, 1.6, ell, KP31, default_sample_points(3)),
}


@pytest.mark.parametrize("name", sorted(AXIS_TAKERS))
@pytest.mark.parametrize("ell", [0, 4])
def test_axis_outside_one_to_d_is_refused(name, ell):
    AXIS_TAKERS[name](3)  # the last axis is accepted
    with pytest.raises(ValueError, match="axis"):
        AXIS_TAKERS[name](ell)


def test_sup_nonincreasing_in_delta_and_large_delta_bounded():
    n_max = 24
    sups = []
    for delta in (1.0, 2.0, 3.5):
        records = lebesgue_sweep(KP31, [delta], n_max, sphere_order=48)
        sups.append(max(r.value for r in records))
    assert sups[0] >= sups[1] >= sups[2]
    # far above the critical index the constants stay next to 1
    lam = float(KP31.lambda_kappa)
    records = lebesgue_sweep(KP31, [lam + 2.0], 48, sphere_order=64)
    assert max(r.value for r in records) <= 1.1


def test_critical_sweep_validation():
    with pytest.raises(ValueError):
        critical_sweep(KP31, [1.0, 2.0], 32)
    with pytest.raises(ValueError):
        critical_sweep(KP31, [2.0, 3.0], 64)  # does not straddle 3/2


def test_critical_sweep_classifications_smoke():
    out = critical_sweep(KP31, [1.0, 1.5, 2.0], 64, sphere_order=72)
    assert out["critical_delta"] == 1.5
    assert out["sign_change_threshold"] == float(KP31.lambda_kappa - KP31.kappa)
    assert out["window"] == [16, 64]
    assert len(out["records"]) == 3 * 64
    by_delta = {row["delta"]: row for row in out["per_delta"]}
    assert by_delta[1.0]["classification"] == "growing"
    assert by_delta[2.0]["classification"] == "bounded"
    # at the critical index the ranking between log and power stays an
    # observation; only record that the fit fields are present
    assert {"b", "se_b", "p", "se_p", "rss_const", "rss_log", "rss_power"} \
        <= set(by_delta[1.5])


def test_classify_growth_on_synthetic_data():
    ns = np.arange(16, 65)
    flat = _fit_models(ns, np.full(len(ns), 3.0) + 1e-9 * np.sin(ns))
    assert classify_growth(flat) == ("bounded", "constant")
    power = _fit_models(ns, 0.5 * ns ** 0.4)
    assert classify_growth(power) == ("growing", "power")
    logd = _fit_models(ns, 2.0 + 0.3 * np.log(ns))
    assert classify_growth(logd) == ("growing", "log")
    assert 0 < BOUNDED_POWER_THRESHOLD < 0.4


def test_envelope_sum_structure():
    # at e_1 the i >= 2 terms sit on the diagonal x_2 = x_3: infinite
    # envelope, so ratios against it collapse to zero but stay finite
    assert _envelope_sum(np.array([1.0, 0.0, 0.0]), 16, 1.0, 2.0, 1.0) == math.inf
    val = _envelope_sum(np.array([0.9, 0.3, -0.1]), 16, 1.0, 2.0, 1.0)
    assert 0 < val < math.inf


@pytest.mark.filterwarnings("error")
def test_envelope_overflow_is_refused_but_a_diagonal_is_not():
    # away from the diagonals an infinite envelope is an overflow: at kappa
    # 1000 the factor 0.4^(-kappa) overflows, at 600 each factor is finite
    # but their product is not, and at 400 the sum is finite but not its
    # product with the front factor.  On a diagonal the factor is infinite
    # and the envelope is inf, with no warning.
    x = np.array([0.9, 0.3, -0.1])
    for kappa, front in ((1000.0, 1.0), (600.0, 1.0), (400.0, 1e100)):
        with pytest.raises(OverflowError, match="overflows float range"):
            _envelope_sum(x, 16, kappa, 2.0, front)
        with pytest.raises(OverflowError):
            _envelope_sum(np.vstack([x, [1.0, 0.0, 0.0]]), 16, kappa, 2.0, front)
        assert _envelope_sum(np.array([1.0, 0.0, 0.0]), 16, kappa, 2.0, front) == math.inf
    assert 0 < _envelope_sum(x, 16, 400.0, 2.0, 1.0) < math.inf


def test_envelope_sum_rows_match_the_per_point_loop():
    def loop(x, n, kappa, exponent):
        total = 0.0
        for i in range(len(x)):
            prod = 1.0
            for j in range(len(x)):
                if j != i:
                    gap = abs(x[j] - x[i])
                    prod *= math.inf if gap == 0.0 else gap ** (-kappa)
            total += prod * (math.sqrt(max(1.0 - abs(x[i]), 0.0)) + 1.0 / n) ** (-exponent)
        return total

    X = np.vstack([default_sample_points(4), [[0.5, 0.5, 0.5, 0.5]]])
    for kappa in (0.0, 0.5, 1.0):
        got = _envelope_sum(X, 16, kappa, 2.5, 1.0)
        for x, value in zip(X, got):
            want = loop(x, 16, kappa, 2.5)
            assert value == want or abs(value - want) <= 1e-14 * want


def test_estimate_check_hypotheses_and_stability():
    pts = default_sample_points(3)
    with pytest.raises(ValueError):
        estimate_check(16, KappaParams(3, 0), 2.5, 2.5, pts)
    with pytest.raises(ValueError):
        estimate_check(16, KP31, 2.5, 3.0, pts)
    with pytest.raises(ValueError):
        estimate_check(16, KP31, 1.0, 0.0, pts)
    with pytest.raises(ValueError, match="n must be >= 1"):
        estimate_check(0, KP31, 2.5, 2.5, pts)
    r16 = estimate_check(16, KP31, 2.5, 2.5, pts)
    r32 = estimate_check(32, KP31, 2.5, 2.5, pts)
    assert 0 < r16 < math.inf and 0 < r32 < math.inf
    assert 0.5 <= r32 / r16 <= 2.0


def test_kernel_bound_finite_at_random_points_and_axis():
    rng = np.random.default_rng(51)
    pts = rng.normal(size=(50, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    ratio = kernel_bound_check(16, 1.6, 1, KP31, pts)
    assert 0 < ratio < math.inf
    # at the coordinate vector itself the envelope is infinite: ratio 0
    assert kernel_bound_check(16, 1.6, 1, KP31, np.array([[1.0, 0.0, 0.0]])) == 0.0
    for kp in (KP31, KappaParams(3, 0)):
        with pytest.raises(ValueError, match="n must be >= 1"):
            kernel_bound_check(0, 1.6, 1, kp, pts)


def test_knd_positivity_report():
    rep = knd_positivity_check(100, JacobiParams(0.0, 0.0), 2.0)
    assert rep["min_value"] >= -1e-12
    assert rep["fitted_c"] > 0
    assert rep["grid_points"] == 801
    rep2 = knd_positivity_check(50, JacobiParams(0.0, 0.0), 2.0)
    assert 0.5 <= rep["fitted_c"] / rep2["fitted_c"] <= 2.0
    with pytest.raises(ValueError):
        knd_positivity_check(20, JacobiParams(0.0, 0.0), 1.5)
    with pytest.raises(ValueError):
        knd_positivity_check(20, JacobiParams(-0.6, 0.0), 3.0)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        knd_positivity_check(0, JacobiParams(0.0, 0.0), 2.0)


def test_smooth_function_converges_above_critical():
    coefs = np.array([0.3, -0.2, 0.5])

    def f(X):
        return (X @ coefs) ** 6 + X[:, 0] ** 2

    target = float(f(np.array([[1.0, 0.0, 0.0]]))[0])
    devs = []
    for n in (8, 16, 32):
        sphere = build_sphere_rule(3, n + 16)
        val = cesaro_mean_at_axis(f, n, 2.0, 1, KP31, sphere)
        devs.append(abs(val - target))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < devs[0] / 2


def test_default_sample_points_layout():
    pts = default_sample_points(3)
    assert pts.shape == (11, 3)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    again = default_sample_points(3)
    assert np.array_equal(pts, again)
    assert not np.array_equal(pts, default_sample_points(3, seed=7))


# ---------------------------------------------------------------------------
# one-degree profiles stream the Jacobi rows
# ---------------------------------------------------------------------------

T_ROW = np.linspace(-1.0, 1.0, 20000)
# 30 points: estimate_check builds its own order-101 rule at n = 200
X_ROWS = np.random.default_rng(3).normal(size=(30, 3))
X_ROWS /= np.linalg.norm(X_ROWS, axis=1, keepdims=True)
RULE_200 = polynomial_rule(KP31, 200)
JP15 = JacobiParams(1.5, 1.5)

# name -> (the call at n = 200, bytes of the one row its profile evaluates)
PROFILE_CALLS = {
    "jacobi_eval": (lambda: jacobi_eval(200, JP15, T_ROW), T_ROW.nbytes),
    "cesaro_kernel_endpoint": (
        lambda: cesaro_kernel_endpoint(200, JP15, 1.5, T_ROW), T_ROW.nbytes),
    "zn_values": (lambda: _zn_values(200, 2.0, T_ROW), T_ROW.nbytes),
    "estimate_check": (
        lambda: estimate_check(200, KP31, 2.5, 2.5, X_ROWS),
        len(X_ROWS) * len(RULE_200) * 8),
}


@pytest.mark.parametrize("name", sorted(PROFILE_CALLS))
def test_one_degree_profile_memory_does_not_grow_with_n(name):
    call, row_bytes = PROFILE_CALLS[name]
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # holding all n + 1 = 201 Jacobi rows would peak near 200 rows
    assert peak < 10 * row_bytes


def test_sweep_at_lambda_zero_is_finite():
    records = lebesgue_sweep(KappaParams(2, 0), [1.0], 8)
    assert [r.n for r in records] == list(range(1, 9))
    assert all(math.isfinite(r.quad_error_estimate) for r in records)
    # the Fejer kernel on the circle is positive, so its Lebesgue constant is 1
    assert all(abs(r.value - 1.0) < 1e-12 for r in records)
