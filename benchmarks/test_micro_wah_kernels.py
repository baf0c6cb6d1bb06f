"""Micro-benchmark: WAH array kernels vs. the per-word reference.

Times the operations the query executor bottoms out in — k-way
``union_all`` over plain bitmaps and over an H-CS plan's terms
(``union_all_plan``), pairwise OR / ANDNOT, complement, and ``count``
— on :class:`~repro.bitmap.wah.WahBitmap` (the numpy kernels) against the
scalar per-word reference in ``tests/wah_reference.py``, asserting
bit-identical results.  The 1%-dense operands take the kernels' dense
branch; ``union_sparse`` stays below the switch and times the
run-merge branch.  A full-mode run records the timings in
``BENCH_wah.json`` at the repository root, the performance record the
documented speedups cite.

Run modes (``WAH_BENCH_MODE`` environment variable):

* ``full`` (default) — paper-scale operands (1M-bit bitmaps, 64-way
  union); asserts the kernel k-way union is at least 5x faster than
  the scalar reference and rewrites ``BENCH_wah.json``.
* ``check`` — small operands, **no timing assertions**, and no record
  written; this is the smoke target (``make bench-wah-smoke``) that
  just proves the benchmark executes.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bitmap import kernels
from repro.bitmap.wah import WahBitmap
from tests.wah_reference import ReferenceWah

MODE = (
    os.environ.get("WAH_BENCH_MODE", "full").strip().lower() or "full"
)
CHECK_MODE = MODE == "check"

NUM_BITS = 100_000 if CHECK_MODE else 1_000_000
NUM_BITMAPS = 8 if CHECK_MODE else 64
DENSITY = 0.01
MIN_UNION_SPEEDUP = 5.0

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_wah.json"

_RECORDS: dict = {
    "benchmark": "wah_kernels_micro",
    "mode": MODE,
    "num_bits": NUM_BITS,
    "density": DENSITY,
    "operations": {},
}


def _fresh_bitmaps(
    count: int, density: float = DENSITY, seed: int = 7
) -> list[WahBitmap]:
    rng = np.random.default_rng(seed)
    size = max(1, int(NUM_BITS * density))
    return [
        WahBitmap.from_positions(
            rng.choice(NUM_BITS, size=size, replace=False), NUM_BITS
        )
        for _ in range(count)
    ]


def _time(fn, repeats: int = 3) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _record(name: str, scalar_s: float, kernel_s: float) -> None:
    _RECORDS["operations"][name] = {
        "scalar_seconds": scalar_s,
        "kernel_seconds": kernel_s,
        "speedup": scalar_s / kernel_s if kernel_s > 0 else None,
    }


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    yield
    # Only a full-scale run may replace the record: a smoke run's small
    # operands would overwrite the numbers the docs cite.
    if MODE == "full":
        RESULT_PATH.write_text(json.dumps(_RECORDS, indent=2) + "\n")


def test_union_all_kway():
    """The acceptance-criterion case: 64-way union of 1M-bit operands."""
    _RECORDS["num_bitmaps"] = NUM_BITMAPS
    operands = _fresh_bitmaps(NUM_BITMAPS)
    references = [ReferenceWah.of(bitmap) for bitmap in operands]
    kernel_s, kernel_result = _time(
        lambda: WahBitmap.union_all(operands), repeats=3
    )
    scalar_s, scalar_result = _time(
        lambda: ReferenceWah.union_all(references), repeats=1
    )
    assert kernel_result.words == scalar_result.words
    _record("union_all", scalar_s, kernel_s)
    if not CHECK_MODE:
        assert scalar_s / kernel_s >= MIN_UNION_SPEEDUP, (
            f"kernel union_all only {scalar_s / kernel_s:.1f}x faster "
            f"than the scalar reference (need >= {MIN_UNION_SPEEDUP}x)"
        )


def _goes_dense(bitmaps) -> bool:
    """Whether the kernels take the dense branch for these operands."""
    return kernels._goes_dense(
        sum(bitmap.num_words for bitmap in bitmaps), -(-NUM_BITS // 31)
    )


def test_union_sparse_run_merge():
    """A 2-way union of operands at density 1e-4, which stays below
    the dense switch: the run-merge branch."""
    operands = _fresh_bitmaps(2, density=1e-4, seed=11)
    assert not _goes_dense(operands)
    references = [ReferenceWah.of(bitmap) for bitmap in operands]
    kernel_s, kernel_result = _time(lambda: WahBitmap.union_all(operands))
    scalar_s, scalar_result = _time(
        lambda: ReferenceWah.union_all(references)
    )
    assert kernel_result.words == scalar_result.words
    _record("union_sparse", scalar_s, kernel_s)


def test_union_all_plan():
    """A plan-shaped dense pass: two complete atoms, an inclusive atom
    of four leaves and an exclusive atom of a node less three leaves,
    as the executor's ``union_all`` terms, against the reference
    composed from ``union_all`` and ``andnot``."""
    nodes = _fresh_bitmaps(3, density=0.3, seed=13)
    leaves = _fresh_bitmaps(7, density=DENSITY, seed=17)
    terms = [nodes[0], nodes[1], *leaves[:4], (nodes[2], leaves[4:])]
    assert _goes_dense(nodes + leaves)
    ref = ReferenceWah.of

    def reference():
        return ReferenceWah.union_all([
            ref(nodes[0]),
            ref(nodes[1]),
            ReferenceWah.union_all(ref(leaf) for leaf in leaves[:4]),
            ref(nodes[2]).andnot(
                ReferenceWah.union_all(ref(leaf) for leaf in leaves[4:])
            ),
        ])

    kernel_s, kernel_result = _time(lambda: WahBitmap.union_all(terms))
    scalar_s, scalar_result = _time(reference, repeats=1)
    assert kernel_result.words == scalar_result.words
    _record("union_all_plan", scalar_s, kernel_s)


@pytest.mark.parametrize("op_name", ["or", "and", "andnot", "xor"])
def test_pairwise_ops(op_name):
    a, b = _fresh_bitmaps(2)
    ops = {
        "or": lambda x, y: x | y,
        "and": lambda x, y: x & y,
        "andnot": lambda x, y: x.andnot(y),
        "xor": lambda x, y: x ^ y,
    }
    op = ops[op_name]
    ref_a, ref_b = ReferenceWah.of(a), ReferenceWah.of(b)
    kernel_s, kernel_result = _time(lambda: op(a, b))
    scalar_s, scalar_result = _time(lambda: op(ref_a, ref_b))
    assert kernel_result.words == scalar_result.words
    _record(f"pairwise_{op_name}", scalar_s, kernel_s)


def test_invert_and_count():
    (bitmap,) = _fresh_bitmaps(1)
    reference = ReferenceWah.of(bitmap)
    kernel_inv_s, kernel_inv = _time(lambda: ~bitmap)
    kernel_cnt_s, kernel_cnt = _time(bitmap.count)
    scalar_inv_s, scalar_inv = _time(lambda: ~reference)
    scalar_cnt_s, scalar_cnt = _time(reference.count)
    assert kernel_inv.words == scalar_inv.words
    assert kernel_cnt == scalar_cnt
    _record("invert", scalar_inv_s, kernel_inv_s)
    _record("count", scalar_cnt_s, kernel_cnt_s)
