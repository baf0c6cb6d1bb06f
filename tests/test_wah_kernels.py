"""Property tests: WAH kernels vs. the per-word reference.

The scalar per-word implementation in ``tests/wah_reference.py`` is the
oracle; every :class:`~repro.bitmap.wah.WahBitmap` operation, which runs
on the array kernels in :mod:`repro.bitmap.kernels`, must produce
**bit-identical canonical word streams**, across random densities,
lengths (including non-multiples of 31), and run structures.
Word-level equality is stronger than logical equality: it pins the
canonical encoding (fill merging, uniform-literal collapsing) the
serialization format and the cost accounting depend on.
"""

from __future__ import annotations

import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bitmap import kernels
from repro.bitmap.serialization import deserialize_wah, serialize_wah
from repro.bitmap.wah import LITERAL_PAYLOAD_MASK, WahBitmap
from repro.errors import BitmapDecodeError, BitmapLengthMismatchError

from .wah_reference import ReferenceWah, WahEncoder, iter_runs

MAX_BITS = 700

#: Bound on a dense pass's peak transient allocation: this many
#: ``groups x 4 B`` arrays (one ``uint32`` payload per group), plus
#: ``DENSE_PEAK_CHUNK_BYTES`` per element of a kernel chunk.
DENSE_PEAK_MULTIPLE = 3
DENSE_PEAK_CHUNK_BYTES = 24


@st.composite
def wah_bitmap(draw, num_bits: int) -> WahBitmap:
    """A random bitmap biased toward interesting run structure."""
    style = draw(st.integers(min_value=0, max_value=2))
    if style == 0:
        positions = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_bits - 1),
                max_size=num_bits,
            )
        )
        return WahBitmap.from_positions(positions, num_bits)
    if style == 1:
        # Long 1-runs exercise fill merging.
        edges = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_bits),
                max_size=8,
            )
        )
        edges = sorted(set(edges))
        runs = list(zip(edges[::2], edges[1::2]))
        return WahBitmap.from_runs(runs, num_bits)
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return WahBitmap.from_dense(rng.random(num_bits) < density)


@st.composite
def bitmap_pair(draw):
    num_bits = draw(st.integers(min_value=1, max_value=MAX_BITS))
    return (
        draw(wah_bitmap(num_bits)),
        draw(wah_bitmap(num_bits)),
    )


@st.composite
def bitmap_list(draw):
    num_bits = draw(st.integers(min_value=1, max_value=MAX_BITS))
    count = draw(st.integers(min_value=1, max_value=7))
    return num_bits, [
        draw(wah_bitmap(num_bits)) for _ in range(count)
    ]


def _ops(a, b):
    """Each binary op's result on a pair (kernel or reference)."""
    return [a & b, a | b, a ^ b, a.andnot(b)]


OP_NAMES = ("and", "or", "xor", "andnot")


def _groups(num_bits: int) -> int:
    return -(-num_bits // 31)


def _branch_binary_words(a: WahBitmap, b: WahBitmap) -> list[list[int]]:
    """Each op through the dense branch, then through the run-merge
    branch, called directly whichever side of the switch the pair is."""
    groups = _groups(a.num_bits)
    return [
        kernels._binary_dense(a._words, b._words, op, groups).tolist()
        for op in OP_NAMES
    ] + [
        kernels._binary_merge(a._words, b._words, op).tolist()
        for op in OP_NAMES
    ]


def _term_pairs(terms) -> list:
    """``WahBitmap.union_all`` terms as the kernels' ``(node, leaves)``
    pairs of word arrays (a plain term has no leaves)."""
    return [
        (term[0]._words, [leaf._words for leaf in term[1]])
        if isinstance(term, tuple)
        else (term._words, [])
        for term in terms
    ]


def _branch_union_words(terms, num_bits: int) -> list[list[int]]:
    """A union through the dense branch and through the run-merge one,
    called directly whichever side of the switch the terms are."""
    pairs = _term_pairs(terms)
    return [
        kernels._union_all_dense(pairs, _groups(num_bits)).tolist(),
        kernels._union_all_merge(pairs).tolist(),
    ]


class TestBinaryOps:
    @given(bitmap_pair())
    @settings(max_examples=150)
    def test_binary_ops_bit_identical(self, pair):
        a, b = pair
        kernel = _ops(a, b)
        reference = _ops(ReferenceWah.of(a), ReferenceWah.of(b))
        assert [r.words for r in kernel] == [r.words for r in reference]

    @given(bitmap_pair())
    @settings(max_examples=150)
    def test_dense_and_merge_branches_bit_identical(self, pair):
        """At these sizes the switch almost always picks the dense
        branch, so each branch is called directly on the same draws."""
        a, b = pair
        reference = [
            list(result.words)
            for result in _ops(ReferenceWah.of(a), ReferenceWah.of(b))
        ]
        assert _branch_binary_words(a, b) == reference * 2

    @given(bitmap_pair())
    @settings(max_examples=80)
    def test_results_stay_canonical(self, pair):
        """Kernel outputs survive a WAH round-trip unchanged (no
        adjacent same-value fills, no uniform literals)."""
        a, b = pair
        result = a | b
        encoder = WahEncoder()
        for is_fill, value, ngroups, literal in iter_runs(result.words):
            if is_fill:
                encoder.append_fill(value, ngroups)
            else:
                encoder.append_literal(literal)
        assert encoder.words == list(result.words)

    def test_length_mismatch_raises(self):
        a = WahBitmap.zeros(62)
        b = WahBitmap.zeros(31)
        with pytest.raises(BitmapLengthMismatchError):
            a | b


class TestInvertAndCount:
    @given(st.integers(min_value=0, max_value=MAX_BITS), st.data())
    @settings(max_examples=150)
    def test_invert_and_count_bit_identical(self, num_bits, data):
        if num_bits == 0:
            bitmap = WahBitmap.zeros(0)
        else:
            bitmap = data.draw(wah_bitmap(num_bits))
        reference = ReferenceWah.of(bitmap)
        assert (~bitmap).words == (~reference).words
        assert bitmap.count() == reference.count()


class TestPositionsAndConstructors:
    @given(st.integers(min_value=1, max_value=MAX_BITS), st.data())
    @settings(max_examples=150)
    def test_from_positions_bit_identical(self, num_bits, data):
        positions = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=num_bits - 1),
                max_size=num_bits,
            )
        )
        assert (
            WahBitmap.from_positions(positions, num_bits).words
            == ReferenceWah.from_positions(positions, num_bits).words
        )

    @given(st.integers(min_value=1, max_value=MAX_BITS), st.data())
    @settings(max_examples=150)
    def test_to_positions_and_get_match_reference(self, num_bits, data):
        bitmap = data.draw(wah_bitmap(num_bits))
        reference = ReferenceWah.of(bitmap)
        positions = bitmap.to_positions()
        assert positions.dtype == np.int64
        assert positions.tolist() == reference.to_positions().tolist()
        assert [bitmap.get(p) for p in range(num_bits)] == [
            reference.get(p) for p in range(num_bits)
        ]

    @given(st.integers(min_value=0, max_value=MAX_BITS))
    @settings(max_examples=100)
    def test_zeros_and_ones_bit_identical(self, num_bits):
        assert (
            WahBitmap.zeros(num_bits).words
            == ReferenceWah.zeros(num_bits).words
        )
        assert (
            WahBitmap.ones(num_bits).words
            == ReferenceWah.ones(num_bits).words
        )

    def test_oversized_fills_split_like_the_reference(self):
        num_bits = 31 * (kernels.MAX_FILL_GROUPS + 3) + 7
        for bitmap, reference in (
            (WahBitmap.zeros(num_bits), ReferenceWah.zeros(num_bits)),
            (WahBitmap.ones(num_bits), ReferenceWah.ones(num_bits)),
        ):
            assert bitmap.words == reference.words
            assert (~bitmap).words == (~reference).words


class TestUnionAll:
    @given(bitmap_list())
    @settings(max_examples=100)
    def test_union_all_bit_identical(self, data):
        num_bits, bitmaps = data
        union = WahBitmap.union_all(bitmaps, num_bits=num_bits)
        reference = ReferenceWah.union_all(
            ReferenceWah.of(bitmap) for bitmap in bitmaps
        )
        assert union.words == reference.words

    @given(bitmap_list())
    @settings(max_examples=100)
    def test_dense_and_merge_branches_bit_identical(self, data):
        _num_bits, bitmaps = data
        reference = ReferenceWah.union_all(
            ReferenceWah.of(bitmap) for bitmap in bitmaps
        )
        assert _branch_union_words(bitmaps, _num_bits) == [
            list(reference.words)
        ] * 2

    def test_union_all_empty_input(self):
        result = WahBitmap.union_all([], num_bits=100)
        assert result == WahBitmap.zeros(100)

    def test_union_all_length_mismatch_raises(self):
        bitmaps = [WahBitmap.zeros(31), WahBitmap.zeros(62)]
        with pytest.raises(BitmapLengthMismatchError):
            WahBitmap.union_all(bitmaps)


class TestLargerDeterministicCases:
    """Seeded larger-scale cases beyond hypothesis' size sweet spot."""

    NUM_BITS = 200_013  # deliberately not a multiple of 31

    @pytest.mark.parametrize(
        "density", [1e-4, 1e-3, 1e-2, 0.05, 0.3, 0.5, 0.9, 0.999]
    )
    def test_dense_sweep_bit_identical(self, density):
        rng = np.random.default_rng(int(density * 1e6))
        a = WahBitmap.from_dense(
            rng.random(self.NUM_BITS) < density
        )
        b = WahBitmap.from_dense(
            rng.random(self.NUM_BITS) < density
        )
        # The sweep straddles the switch: run-heavy pairs (the sparsest
        # and the nearly full) run-merge, the rest go dense.
        assert kernels._goes_dense(
            a.num_words + b.num_words, _groups(self.NUM_BITS)
        ) is (1e-2 <= density <= 0.9)
        ref_a, ref_b = ReferenceWah.of(a), ReferenceWah.of(b)
        kernel = _ops(a, b) + [~a, a.concat(b)]
        reference = _ops(ref_a, ref_b) + [~ref_a, ref_a.concat(ref_b)]
        assert [r.words for r in kernel] == [r.words for r in reference]
        assert _branch_binary_words(a, b) == [
            list(result.words) for result in reference[:4]
        ] * 2
        assert a.count() == ref_a.count()
        assert a.to_positions().tolist() == ref_a.to_positions().tolist()

    def test_many_way_union_bit_identical(self):
        rng = np.random.default_rng(42)
        bitmaps = [
            WahBitmap.from_positions(
                rng.choice(self.NUM_BITS, size=500, replace=False),
                self.NUM_BITS,
            )
            for _ in range(24)
        ]
        reference = ReferenceWah.union_all(
            ReferenceWah.of(bitmap) for bitmap in bitmaps
        )
        assert WahBitmap.union_all(bitmaps).words == reference.words
        assert _branch_union_words(bitmaps, self.NUM_BITS) == [
            list(reference.words)
        ] * 2

    def test_sparse_union_never_expands_to_groups(self):
        """Below the switch a union allocates per run, not a payload
        per group: 20 set bits over 10M bits stay far under one
        ``uint32`` per group."""
        num_bits = 10_000_003
        rng = np.random.default_rng(8)
        bitmaps = [
            WahBitmap.from_positions(
                rng.choice(num_bits, size=5, replace=False), num_bits
            )
            for _ in range(4)
        ]
        tracemalloc.start()
        try:
            WahBitmap.union_all(bitmaps)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < _groups(num_bits) * 4 // 100


@st.composite
def plan_atoms(draw):
    """Random complete ``(node, ())``, inclusive ``(None, leaves)`` and
    exclusive ``(node, leaves)`` atoms over one length."""
    num_bits = draw(st.integers(min_value=1, max_value=MAX_BITS))
    atoms = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        kind = draw(st.sampled_from(("complete", "inclusive", "exclusive")))
        node = None if kind == "inclusive" else draw(wah_bitmap(num_bits))
        leaves = (
            []
            if kind == "complete"
            else [
                draw(wah_bitmap(num_bits))
                for _ in range(draw(st.integers(min_value=1, max_value=4)))
            ]
        )
        atoms.append((node, leaves))
    return num_bits, atoms


def _plan_terms(atoms) -> list:
    """Atoms as ``WahBitmap.union_all`` terms, the way the executor
    yields them: an inclusive atom's leaves, else ``(node, leaves)``."""
    terms = []
    for node, leaves in atoms:
        if node is None:
            terms.extend(leaves)
        else:
            terms.append((node, list(leaves)))
    return terms


def _reference_plan(num_bits: int, atoms) -> ReferenceWah:
    """The atoms composed from the reference's ``union_all`` and
    ``andnot``: one term per atom, then one union of the terms."""
    terms = []
    for node, leaves in atoms:
        union = (
            ReferenceWah.union_all(ReferenceWah.of(leaf) for leaf in leaves)
            if leaves
            else None
        )
        if node is None:
            terms.append(union)
        elif union is None:
            terms.append(ReferenceWah.of(node))
        else:
            terms.append(ReferenceWah.of(node).andnot(union))
    if not terms:
        return ReferenceWah.zeros(num_bits)
    return ReferenceWah.union_all(terms)


class TestPlanTerms:
    """``WahBitmap.union_all`` over an H-CS plan's terms (exclusive
    atoms as ``(node, leaves)``) against the reference composed atom by
    atom, through each branch."""

    @given(plan_atoms())
    @settings(max_examples=150)
    def test_plan_terms_bit_identical(self, drawn):
        num_bits, atoms = drawn
        expected = list(_reference_plan(num_bits, atoms).words)
        terms = _plan_terms(atoms)
        union = WahBitmap.union_all(terms, num_bits=num_bits)
        assert list(union.words) == expected
        if terms:
            assert _branch_union_words(terms, num_bits) == [expected] * 2

    @pytest.mark.parametrize("density", [1e-4, 0.05])
    def test_seeded_plan_on_each_side_of_the_switch(self, density):
        num_bits = TestLargerDeterministicCases.NUM_BITS
        rng = np.random.default_rng(int(density * 1e6) + 1)

        def draw() -> WahBitmap:
            return WahBitmap.from_dense(rng.random(num_bits) < density)

        atoms = [
            (draw(), ()),
            (None, [draw(), draw(), draw()]),
            (draw(), [draw(), draw()]),
            (WahBitmap.ones(num_bits), [draw()]),
        ]
        terms = _plan_terms(atoms)
        pairs = _term_pairs(terms)
        assert kernels._goes_dense(
            sum(node.size + sum(leaf.size for leaf in leaves)
                for node, leaves in pairs),
            _groups(num_bits),
        ) is (density == 0.05)
        expected = _reference_plan(num_bits, atoms).words
        assert WahBitmap.union_all(terms).words == expected
        assert _branch_union_words(terms, num_bits) == [list(expected)] * 2

    def test_length_mismatch_raises(self):
        with pytest.raises(BitmapLengthMismatchError):
            WahBitmap.union_all(
                [(WahBitmap.zeros(62), [WahBitmap.zeros(31)])]
            )

    @pytest.mark.parametrize("short_bits", [62, 31])
    def test_dense_operand_of_the_wrong_width_raises(self, short_bits):
        """A leaf one group short of the node, or one group long."""
        pairs = [(
            WahBitmap.ones(short_bits)._words,
            [WahBitmap.ones(93 - short_bits)._words],
        )]
        with pytest.raises(BitmapDecodeError):
            kernels._union_all_dense(pairs, _groups(short_bits))

    @given(plan_atoms())
    @settings(max_examples=100)
    def test_chunked_dense_branch_bit_identical(self, drawn):
        """The dense branch expands and encodes a chunk at a time;
        chunks of three words or groups put a chunk boundary inside
        the draws' runs, which the full-size chunk never does here."""
        num_bits, atoms = drawn
        terms = _plan_terms(atoms)
        if not terms:
            return
        expected = list(_reference_plan(num_bits, atoms).words)
        with mock.patch.object(kernels, "_CHUNK", 3):
            assert _branch_union_words(terms, num_bits)[0] == expected

    def test_runs_cross_full_size_chunk_boundaries(self):
        """At the real chunk size: operands of more than one chunk of
        words, an answer whose zero fill crosses the encoder's first
        chunk boundary, and a final zero fill that runs past the next
        one to the end.  The dense answer's words match the run-merge
        branch's and its bits match numpy's."""
        chunk = kernels._CHUNK
        groups = 3 * chunk
        num_bits = 31 * groups - 5
        rng = np.random.default_rng(21)
        node, leaf, other = (rng.random(num_bits) < 0.2 for _ in range(3))
        for lo, hi in ((chunk - 500, chunk + 500), (2 * chunk + 400, groups)):
            zero = slice(31 * lo, 31 * hi)
            leaf[zero] = node[zero]  # node ANDNOT leaf is empty there
            other[zero] = False
        terms = [
            (WahBitmap.from_dense(node), [WahBitmap.from_dense(leaf)]),
            WahBitmap.from_dense(other),
        ]
        assert terms[1].num_words > chunk
        dense, merge = _branch_union_words(terms, num_bits)
        assert dense == merge
        answer = WahBitmap.union_all(terms)
        assert answer.words == tuple(dense)
        expected = np.flatnonzero((node & ~leaf) | other)
        assert answer.to_positions().tolist() == expected.tolist()

    def test_dense_encoder_splits_oversized_fills(self, monkeypatch):
        """Fills longer than the fill count allows split as
        ``encode_runs`` splits them (shown at a 4-group limit)."""
        monkeypatch.setattr(kernels, "MAX_FILL_GROUPS", 4)
        payloads = np.array(
            [0] * 11 + [5] + [LITERAL_PAYLOAD_MASK] * 9 + [3, 3] + [0] * 4,
            dtype=np.uint32,
        )
        expected = kernels.encode_runs(np.ones(payloads.size), payloads)
        assert kernels._encode_groups(payloads).tolist() == (
            expected.tolist()
        )

    @pytest.mark.parametrize("copies", [1, 20])
    def test_dense_pass_memory_is_a_fixed_multiple_of_the_groups(
        self, copies
    ):
        """Peak transient allocation of one dense pass is three
        ``groups x 4 B`` arrays (the accumulator and the encoded answer
        twice: its chunks, then their concatenation) plus per-chunk
        temporaries, however many terms it ORs.  Every operand and the
        answer are all literals, one word per group: the worst case
        for both the expansion and the encoder."""
        groups = 400_000
        rng = np.random.default_rng(12)

        def draw() -> np.ndarray:
            return rng.integers(
                1, LITERAL_PAYLOAD_MASK, size=groups, dtype=np.uint32
            )

        pairs = [
            (draw(), []),
            (draw(), []),
            (draw(), []),
            (draw(), [draw(), draw()]),
        ] * copies
        tracemalloc.start()
        try:
            kernels._union_all_dense(pairs, groups)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (
            DENSE_PEAK_MULTIPLE * groups * 4
            + DENSE_PEAK_CHUNK_BYTES * kernels._CHUNK
        )


class TestRepresentation:
    """One format: a read-only ``np.uint32`` array, end to end."""

    @staticmethod
    def _assert_word_array(bitmap: WahBitmap) -> None:
        assert isinstance(bitmap._words, np.ndarray)
        assert bitmap._words.dtype == np.uint32
        assert not bitmap._words.flags.writeable

    def test_every_op_returns_a_read_only_word_array(self):
        a = WahBitmap.from_positions([1, 40, 41, 99], 100)
        b = WahBitmap.ones(100)
        for bitmap in _ops(a, b) + [
            ~a,
            a.concat(b),
            WahBitmap.union_all([a, b]),
            WahBitmap.zeros(100),
            pickle.loads(pickle.dumps(a)),
        ]:
            self._assert_word_array(bitmap)

    def test_kernels_return_uint32_arrays(self):
        words = WahBitmap.from_positions([1, 40, 99], 100)._words
        for result in (
            kernels.encode_runs([2, 1], [0, 0b101]),
            kernels.binary_words(words, words, "or"),
            kernels.union_all_words([words, (words, [words])]),
            kernels._union_all_merge([(words, [words]), (words, [])]),
            kernels.invert_words(words, 100),
            kernels.concat_words(words, 100, words, 100),
            kernels.positions_to_words(np.array([3, 70]), 100),
        ):
            assert isinstance(result, np.ndarray)
            assert result.dtype == np.uint32

    def test_deserialize_views_the_payload(self):
        bitmap = WahBitmap.from_positions([5, 31, 500, 501], 1000)
        payload = serialize_wah(bitmap)
        restored = deserialize_wah(payload)
        self._assert_word_array(restored)
        assert np.shares_memory(
            restored._words, np.frombuffer(payload, dtype=np.uint8)
        )
        assert restored == bitmap

    def test_constructor_keeps_a_uint32_array_without_copying(self):
        words = np.array([5, 0x80000002], dtype=np.uint32)
        bitmap = WahBitmap(words, 93)
        assert np.shares_memory(bitmap._words, words)
        assert words.flags.writeable
        assert WahBitmap([5, 0x80000002], 93) == bitmap


class TestKernelPrimitives:
    def test_decode_encode_roundtrip_is_identity(self):
        rng = np.random.default_rng(9)
        bitmap = WahBitmap.from_positions(
            rng.choice(10_000, size=700, replace=False), 10_000
        )
        lengths, payloads = kernels.decode_words(bitmap.words)
        assert kernels.encode_runs(lengths, payloads).tolist() == list(
            bitmap.words
        )

    def test_encode_splits_oversized_fills_like_scalar(self):
        huge = 3 * kernels.MAX_FILL_GROUPS + 5
        words = kernels.encode_runs([huge, 1], [0, 0b1010])
        encoder = WahEncoder()
        encoder.append_fill(0, huge)
        encoder.append_literal(0b1010)
        assert words.tolist() == encoder.words

    def test_encode_collapses_uniform_literals(self):
        words = kernels.encode_runs(
            [1, 1, 1], [0, 0, LITERAL_PAYLOAD_MASK]
        )
        encoder = WahEncoder()
        encoder.append_literal(0)
        encoder.append_literal(0)
        encoder.append_literal(LITERAL_PAYLOAD_MASK)
        assert words.tolist() == encoder.words

    def test_encode_expands_non_uniform_multi_group_runs(self):
        # Hand-built input violating the literal-length-1 invariant.
        words = kernels.encode_runs([3], [0b101])
        assert words.tolist() == [0b101, 0b101, 0b101]

    def test_binary_words_rejects_group_count_mismatch(self):
        a = WahBitmap.zeros(62).words
        b = WahBitmap.zeros(31).words
        with pytest.raises(BitmapDecodeError):
            kernels.binary_words(a, b, "or")

    def test_binary_words_rejects_unknown_op(self):
        words = WahBitmap.zeros(31).words
        with pytest.raises(ValueError):
            kernels.binary_words(words, words, "nand")

    def test_popcount32_matches_bit_count(self):
        rng = np.random.default_rng(3)
        values = rng.integers(
            0, 2**32, size=1000, dtype=np.uint64
        ).astype(np.int64)
        expected = [int(v).bit_count() for v in values]
        assert kernels.popcount32(values).tolist() == expected


class TestSortedUnique:
    """The hash-free ``np.unique`` every bitmap constructor uses."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-8, max_value=8),
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
            ),
            max_size=300,
        )
    )
    @example([])
    @example([7])
    @example([1, 2, 3])
    @example([1, 1, 2])
    @example([3, 1, 3, 2, 1])
    def test_equals_np_unique(self, values):
        array = np.asarray(values, dtype=np.int64)
        result = kernels.sorted_unique(array)
        expected = np.unique(array)
        assert result.dtype == expected.dtype
        assert np.array_equal(result, expected)

    def test_strictly_increasing_input_is_returned_as_is(self):
        values = np.arange(0, 3_000, 3, dtype=np.int64)
        assert kernels.sorted_unique(values) is values

    def test_sparse_union_is_bit_identical(self):
        """Few runs over many groups take the sort-based branch of
        the segment-boundary union."""
        num_bits = 10_000_003
        rng = np.random.default_rng(8)
        bitmaps = [
            WahBitmap.from_positions(
                rng.choice(num_bits, size=5, replace=False), num_bits
            )
            for _ in range(4)
        ]
        reference = ReferenceWah.union_all(
            ReferenceWah.of(bitmap) for bitmap in bitmaps
        )
        assert WahBitmap.union_all(bitmaps).words == reference.words
        pair = ReferenceWah.of(bitmaps[0]) | ReferenceWah.of(bitmaps[1])
        assert (bitmaps[0] | bitmaps[1]).words == pair.words
