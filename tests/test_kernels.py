"""Scalar vs NumPy kernel equivalence — bit-identical by construction.

Property-style randomized checks: every :class:`KernelSet` primitive is
run over seeded random inputs (duplicate-heavy keys, NaNs, strings,
empty inputs, selection vectors, all-pass masks) and the scalar
reference must agree with the vectorized path on dtype *and* bytes,
because the executor promises byte-identical query results under either
kernel set.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.chunk import DataChunk
from repro.engine.errors import EngineError
from repro.engine.expressions import (
    Arithmetic,
    BooleanOp,
    CaseWhen,
    Comparison,
    ExtractYear,
    Like,
    Not,
    Substring,
    col,
    lit,
)
from repro.engine.kernels import (
    KERNEL_NAMES,
    NumpyKernels,
    ScalarKernels,
    get_kernels,
    resolve_kernels,
    set_kernels,
)
from repro.engine import keys
from repro.engine.keys import group_rows, pack_rows
from repro.engine.types import DataType, Schema

NUMPY = NumpyKernels()
SCALAR = ScalarKernels()

SEEDS = [0, 1, 2, 7, 1234]


def assert_bit_identical(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype, f"dtype mismatch: {a.dtype} vs {b.dtype}"
    assert a.shape == b.shape, f"shape mismatch: {a.shape} vs {b.shape}"
    assert a.tobytes() == b.tobytes()


def random_key_columns(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """1–3 key columns with heavy duplication across mixed dtypes."""
    pool = [
        rng.integers(-5, 5, n),
        rng.integers(0, 3, n).astype(np.int32),
        np.array(["aa", "b", "ccc", "b", "aa"], dtype="U3")[rng.integers(0, 5, n)],
        np.round(rng.random(n) * 4) / 2.0,
        rng.integers(0, 2, n).astype(bool),
    ]
    count = int(rng.integers(1, 4))
    picks = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in picks]


class TestGrouping:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_group_rows_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        arrays = random_key_columns(rng, int(rng.integers(1, 200)))
        n_ids, n_first, n_groups = NUMPY.group_rows(arrays)
        s_ids, s_first, s_groups = SCALAR.group_rows(arrays)
        assert n_groups == s_groups
        assert_bit_identical(n_ids.astype(np.int64), s_ids)
        assert_bit_identical(n_first.astype(np.int64), s_first)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_grouped_reductions_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        num_groups = int(rng.integers(1, 12))
        group_ids = rng.integers(0, num_groups, n)
        values = rng.random(n) * 100 - 50
        assert_bit_identical(
            NUMPY.grouped_sum(group_ids, values, num_groups),
            SCALAR.grouped_sum(group_ids, values, num_groups),
        )
        assert_bit_identical(
            NUMPY.grouped_count(group_ids, num_groups),
            SCALAR.grouped_count(group_ids, num_groups),
        )
        for take_min in (True, False):
            assert_bit_identical(
                NUMPY.grouped_extreme(group_ids, values, num_groups, take_min),
                SCALAR.grouped_extreme(group_ids, values, num_groups, take_min),
            )

    def test_grouped_extreme_strings_and_ints(self):
        group_ids = np.array([0, 1, 0, 2, 1, 0], dtype=np.int64)
        strings = np.array(["pear", "fig", "apple", "kiwi", "date", "plum"], dtype="U4")
        ints = np.array([5, -1, 3, 9, 0, -7], dtype=np.int64)
        for take_min in (True, False):
            assert_bit_identical(
                NUMPY.grouped_extreme(group_ids, strings, 3, take_min),
                SCALAR.grouped_extreme(group_ids, strings, 3, take_min),
            )
            assert_bit_identical(
                NUMPY.grouped_extreme(group_ids, ints, 3, take_min),
                SCALAR.grouped_extreme(group_ids, ints, 3, take_min),
            )

    def test_empty_and_zero_group_inputs(self):
        empty_ids = np.empty(0, dtype=np.int64)
        empty_vals = np.empty(0, dtype=np.float64)
        assert_bit_identical(
            NUMPY.grouped_sum(empty_ids, empty_vals, 0),
            SCALAR.grouped_sum(empty_ids, empty_vals, 0),
        )
        assert_bit_identical(
            NUMPY.grouped_count(empty_ids, 0), SCALAR.grouped_count(empty_ids, 0)
        )
        for take_min in (True, False):
            assert_bit_identical(
                NUMPY.grouped_extreme(empty_ids, empty_vals, 0, take_min),
                SCALAR.grouped_extreme(empty_ids, empty_vals, 0, take_min),
            )


class TestJoinPrimitives:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_build_probe_expand_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        build = rng.integers(0, 20, int(rng.integers(0, 150))).astype(np.int64)
        probe = rng.integers(0, 25, int(rng.integers(0, 150))).astype(np.int64)

        n_sorted, n_order = NUMPY.build_order(build)
        s_sorted, s_order = SCALAR.build_order(build)
        assert_bit_identical(n_sorted, s_sorted)
        assert_bit_identical(n_order, s_order)

        n_left, n_right = NUMPY.probe_ranges(n_sorted, probe)
        s_left, s_right = SCALAR.probe_ranges(s_sorted, probe)
        assert_bit_identical(n_left, s_left)
        assert_bit_identical(n_right, s_right)

        counts = (n_right - n_left).astype(np.int64)
        n_probe, n_build = NUMPY.expand_matches(n_left, counts, n_order)
        s_probe, s_build = SCALAR.expand_matches(s_left, counts, s_order)
        assert_bit_identical(n_probe, s_probe)
        assert_bit_identical(n_build, s_build)

    def test_join_codes_shared(self):
        keys = [np.array([3, 1, 3], dtype=np.int64), np.array([0, 2, 0], dtype=np.int64)]
        assert_bit_identical(NUMPY.join_codes(keys), SCALAR.join_codes(keys))


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# The dense-index span bound.
DENSE_SPAN_MAX = 1 << 18


@st.composite
def probe_cases(draw):
    """(build codes, probe codes) over the key shapes the dense index meets.

    dense and duplicated keys, spans one slot either side of the bound,
    negative keys, keys at the int64 extremes, composite two-column codes,
    empty builds and empty probes.
    """
    shape = draw(
        st.sampled_from(
            ["dense", "duplicated", "at_bound", "negative", "near_min", "near_max",
             "composite"]
        )
    )
    rows = draw(st.integers(0, 40))
    if shape == "composite":
        highs = draw(st.sampled_from([[0], [7], [0, 1], [2**31 - 1]]))
        high = np.array(draw(st.lists(st.sampled_from(highs), min_size=rows, max_size=rows)))
        low = np.array(
            draw(st.lists(st.integers(0, 2**31 - 1), min_size=rows, max_size=rows))
        )
        build = NUMPY.join_codes([high, low]) if rows else np.empty(0, dtype=np.int64)
        pool = build.tolist() + [0, 1, (7 << 32) - 1, 2**63 - 1]
    else:
        lo, span = {
            "dense": (0, 20),
            "duplicated": (5, 3),
            "at_bound": (
                draw(st.integers(-(2**40), 2**40)),
                DENSE_SPAN_MAX + draw(st.sampled_from([-1, 0, 1])),
            ),
            "negative": (-1000, 600),
            "near_min": (INT64_MIN + draw(st.integers(0, 2)), 50),
            "near_max": (INT64_MAX - 49 - draw(st.integers(0, 2)), 50),
        }[shape]
        offsets = draw(st.lists(st.integers(0, span - 1), min_size=rows, max_size=rows))
        if rows >= 2:
            offsets[:2] = [0, span - 1]
        build = np.array([lo + offset for offset in offsets], dtype=np.int64)
        hi = lo + span - 1
        pool = [lo + offset for offset in offsets] + [
            max(lo - 1, INT64_MIN), min(hi + 1, INT64_MAX), lo, hi, (lo + hi) // 2
        ]
    pool += [INT64_MIN, INT64_MAX]
    probe = draw(st.lists(st.sampled_from(pool), max_size=60))
    return build.astype(np.int64), np.array(probe, dtype=np.int64)


class TestDenseProbeIndex:
    @settings(max_examples=300, deadline=None)
    @given(probe_cases())
    def test_dense_ranges_equal_binary_search(self, case):
        build, probe = case
        codes_sorted, _ = NUMPY.build_order(build)
        index = NUMPY.probe_index(codes_sorted)
        expect_dense = (
            len(codes_sorted) > 0
            and INT64_MIN < codes_sorted[0]
            and codes_sorted[-1] < INT64_MAX
            and int(codes_sorted[-1]) - int(codes_sorted[0]) + 1 <= DENSE_SPAN_MAX
        )
        assert (index is not None) == expect_dense
        left, right = NUMPY.probe_ranges(codes_sorted, probe, index)
        for oracle in (
            SCALAR.probe_ranges(codes_sorted, probe),
            NUMPY.probe_ranges(codes_sorted, probe),
        ):
            assert_bit_identical(left, oracle[0])
            assert_bit_identical(right, oracle[1])

    def test_scalar_set_has_no_index(self):
        assert SCALAR.probe_index(np.arange(5, dtype=np.int64)) is None

    def test_non_int64_codes_use_binary_search(self):
        assert NUMPY.probe_index(np.arange(5, dtype=np.int32)) is None


# Values on either side of a byte boundary, so the byte-swapped order
# differs from the little-endian byte order wherever it could.
BYTE_EDGES = [-1, 0, 1, 255, 256, 65535, 65536, -256, 2**40, INT64_MIN, INT64_MAX]


@st.composite
def int_key_columns(draw):
    rows = draw(st.integers(0, 80))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        values = np.array(
            draw(st.lists(st.sampled_from(BYTE_EDGES), min_size=rows, max_size=rows)),
            dtype=np.int64,
        )
        dtype = draw(st.sampled_from([np.int64, np.int32, np.uint8, np.bool_]))
        columns.append(values.astype(dtype))
    return columns


class TestIntegerGrouping:
    @settings(max_examples=300, deadline=None)
    @given(int_key_columns())
    def test_int_keys_group_like_the_void_path(self, columns):
        ids, first, count = group_rows(columns)
        _, void_first, void_ids = np.unique(
            pack_rows(columns), return_index=True, return_inverse=True
        )
        assert count == len(void_first)
        assert_bit_identical(ids, void_ids.astype(np.int64))
        assert_bit_identical(first, void_first.astype(np.int64))
        s_ids, s_first, s_count = SCALAR.group_rows(columns)
        assert count == s_count
        assert_bit_identical(ids, s_ids)
        assert_bit_identical(first, s_first)



DENSE_MIN_ROWS = keys._DENSE_GROUP_MIN_ROWS
DENSE_MAX_WORDS = keys._DENSE_GROUP_MAX_WORDS
DENSE_SPAN_BOUND = keys._DENSE_GROUP_SPAN_MAX

# "" pads with zero code units; "é" and "中" are non-ASCII, so their code
# units order differently as words and as little-endian bytes; the astral
# code points lie above 0xFFFF, past the span bound of any word that also
# holds an ASCII unit.
STRING_POOL = ["", "a", "b", "ab", "ba", "é", "aé", "éa", "中", "a中", "\U0001F600", "a\U0001F600"]


@st.composite
def mixed_key_columns(draw, rows=None):
    """1-3 columns of ``<Uk`` strings, ints (incl. negatives) and bools."""
    if rows is None:
        rows = draw(st.integers(0, 60))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["str", "int", "bool"]))
        if kind == "str":
            pool = draw(st.lists(st.sampled_from(STRING_POOL), min_size=1, max_size=5))
            values = draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows))
            width = max([len(value) for value in values] + [1])
            columns.append(np.array(values, dtype=f"<U{width}"))
        elif kind == "int":
            low = draw(st.integers(-300, 300))
            high = low + draw(st.integers(0, 300))
            values = draw(st.lists(st.integers(low, high), min_size=rows, max_size=rows))
            dtype = draw(st.sampled_from([np.int64, np.int32]))
            columns.append(np.array(values, dtype=dtype))
        else:
            values = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
            columns.append(np.array(values, dtype=bool))
    return columns


def word_spans(columns: list[np.ndarray]) -> list[int]:
    """Spans of the packed key's non-constant words, read off Python values."""
    spans = []
    for column in columns:
        if column.dtype.kind == "U":
            values = column.tolist()
            for unit in range(column.dtype.itemsize // 4):
                points = [ord(value[unit]) if unit < len(value) else 0 for value in values]
                spans.append(max(points) - min(points) + 1)
        else:
            values = [int(value) for value in column.tolist()]
            spans.append(max(values) - min(values) + 1)
    return [span for span in spans if span > 1]


def assert_groups_like_the_oracles(grouped, columns) -> None:
    """``grouped`` equals the void-key ``np.unique`` and the scalar kernel."""
    ids, first, count = grouped
    _, void_first, void_ids = np.unique(
        pack_rows(columns), return_index=True, return_inverse=True
    )
    assert count == len(void_first)
    assert_bit_identical(ids, void_ids.astype(np.int64))
    assert_bit_identical(first, void_first.astype(np.int64))
    s_ids, s_first, s_count = SCALAR.group_rows(columns)
    assert count == s_count
    assert_bit_identical(ids, s_ids)
    assert_bit_identical(first, s_first)


def dense(columns: list[np.ndarray]):
    return keys._group_dense(keys._normalize_keys(columns))


class TestDenseGrouping:
    @settings(max_examples=400, deadline=None)
    @given(mixed_key_columns())
    def test_dense_helper_groups_like_the_void_path(self, columns):
        grouped = dense(columns)
        if len(columns[0]):
            spans = word_spans(columns)
            accepted = len(spans) <= DENSE_MAX_WORDS and math.prod(spans) <= DENSE_SPAN_BOUND
            assert (grouped is not None) == accepted
        if grouped is not None:
            assert_groups_like_the_oracles(grouped, columns)
        assert_groups_like_the_oracles(group_rows(columns), columns)

    @settings(max_examples=30, deadline=None)
    @given(st.data(), st.sampled_from([DENSE_MIN_ROWS - 1, DENSE_MIN_ROWS]))
    def test_row_threshold(self, data, rows):
        seed = data.draw(st.integers(0, 2**32 - 1))
        distinct = data.draw(mixed_key_columns(rows=data.draw(st.integers(1, 12))))
        picks = np.random.default_rng(seed).integers(0, len(distinct[0]), rows)
        columns = [column[picks] for column in distinct]
        with mock.patch.object(keys, "_group_dense", wraps=keys._group_dense) as spy:
            grouped = group_rows(columns)
        assert spy.called == (rows >= DENSE_MIN_ROWS)
        assert_groups_like_the_oracles(grouped, columns)

    @pytest.mark.parametrize(
        "spans, taken",
        [
            ((DENSE_SPAN_BOUND - 1,), True),
            ((DENSE_SPAN_BOUND,), True),
            ((DENSE_SPAN_BOUND + 1,), False),
            ((256, 256), True),
            ((256, 257), False),
        ],
    )
    def test_span_bound(self, spans, taken):
        rng = np.random.default_rng(len(spans))
        columns = []
        for span in spans:
            values = rng.integers(-5, span - 5, 3000)
            values[:2] = [-5, span - 6]
            columns.append(values)
        grouped = dense(columns)
        assert (grouped is not None) == taken
        assert_groups_like_the_oracles(group_rows(columns), columns)
        if taken:
            assert_groups_like_the_oracles(grouped, columns)

    @pytest.mark.parametrize("above", [DENSE_SPAN_BOUND - 1, DENSE_SPAN_BOUND])
    def test_code_unit_span_bound(self, above):
        # "a" + 2**16 - 1 is an astral code point, still within the bound;
        # one further and the word's span passes it, and the key falls back.
        top = chr(ord("a") + above)
        values = np.array(["a", top, "b", top, "a"], dtype="<U1")
        assert (dense([values]) is not None) == (above < DENSE_SPAN_BOUND)
        assert_groups_like_the_oracles(group_rows([values]), [values])

    def test_astral_code_points_fall_back(self):
        columns = [np.array(["a", "\U0001F600", "a", ""] * 700)]
        assert len(columns[0]) >= DENSE_MIN_ROWS
        assert dense(columns) is None
        assert_groups_like_the_oracles(group_rows(columns), columns)

    @pytest.mark.parametrize("words", [DENSE_MAX_WORDS - 1, DENSE_MAX_WORDS, DENSE_MAX_WORDS + 1])
    @pytest.mark.parametrize("kind", ["bool", "str"])
    def test_word_cap(self, words, kind):
        rng = np.random.default_rng(words)
        bits = rng.integers(0, 2, (300, words)).astype(bool)
        if kind == "bool":
            columns = [bits[:, word] for word in range(words)]
        else:
            letters = np.where(bits, "b", "a")
            columns = [np.array(["".join(row) for row in letters], dtype=f"<U{words}")]
        grouped = dense(columns)
        assert (grouped is not None) == (words <= DENSE_MAX_WORDS)
        if grouped is not None:
            assert_groups_like_the_oracles(grouped, columns)

    def test_constant_words_drop_out(self):
        columns = [np.array(["Brand#12", "Brand#21", "Brand#12"]), np.zeros(3, dtype=np.int64)]
        assert_groups_like_the_oracles(dense(columns), columns)
        single = [np.array(["x", "x"])]
        assert_groups_like_the_oracles(dense(single), single)

    def test_empty_key(self):
        columns = [np.array([], dtype="<U3"), np.array([], dtype=np.int64)]
        grouped = dense(columns)
        assert grouped[2] == 0
        assert_groups_like_the_oracles(grouped, columns)
        assert_groups_like_the_oracles(group_rows(columns), columns)

    def test_float_and_object_keys_keep_the_void_path(self):
        columns = [np.tile([0.5, 1.5], DENSE_MIN_ROWS)]
        objects = [np.array(["a", "b"] * DENSE_MIN_ROWS, dtype=object)]
        for keyset in (columns, objects):
            with mock.patch.object(keys, "_group_dense", wraps=keys._group_dense) as spy:
                grouped = group_rows(keyset)
            assert not spy.called
            assert_groups_like_the_oracles(grouped, keyset)


EXPR_SCHEMA = Schema.of(
    ("i", DataType.INT64),
    ("f", DataType.FLOAT64),
    ("s", DataType.STRING),
    ("d", DataType.DATE),
)

EXPRESSIONS = [
    Arithmetic("*", col("f"), Arithmetic("-", lit(1.0), col("f"))),
    Arithmetic("/", col("i"), lit(3)),
    Comparison(">", col("f"), lit(0.5)),
    BooleanOp("and", [Comparison(">=", col("i"), lit(2)), Not(Like(col("s"), "%a%"))]),
    CaseWhen(
        [(Comparison("<", col("i"), lit(5)), lit("low"))], default=lit("high")
    ),
    Substring(col("s"), 1, 2),
    ExtractYear(col("d")),
]


def random_chunk(rng: np.random.Generator, n: int) -> DataChunk:
    return DataChunk(
        EXPR_SCHEMA,
        [
            rng.integers(0, 10, n),
            rng.random(n),
            np.array(["alpha", "beta", "gamma", "a"], dtype="U5")[rng.integers(0, 4, n)],
            rng.integers(8000, 11000, n).astype(np.int32),
        ],
    )


class TestExpressionEvaluation:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("expression", EXPRESSIONS, ids=repr)
    def test_evaluate_equivalence(self, seed, expression):
        rng = np.random.default_rng(seed)
        chunk = random_chunk(rng, int(rng.integers(1, 60)))
        assert_bit_identical(
            NUMPY.evaluate(expression, chunk), SCALAR.evaluate(expression, chunk)
        )

    @pytest.mark.parametrize("expression", EXPRESSIONS, ids=repr)
    def test_evaluate_empty_chunk(self, expression):
        chunk = random_chunk(np.random.default_rng(0), 7).slice(0, 0)
        assert_bit_identical(
            NUMPY.evaluate(expression, chunk), SCALAR.evaluate(expression, chunk)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_evaluate_on_lazy_selection(self, seed):
        """Kernels agree on chunks carrying a selection vector."""
        rng = np.random.default_rng(seed)
        chunk = random_chunk(rng, 50)
        mask = rng.random(50) < 0.4
        lazy = chunk.filter(mask, lazy=True)
        assert lazy.is_lazy
        for expression in EXPRESSIONS:
            assert_bit_identical(
                NUMPY.evaluate(expression, lazy), SCALAR.evaluate(expression, lazy)
            )

    def test_evaluate_all_pass_filter_mask(self):
        chunk = random_chunk(np.random.default_rng(3), 40)
        predicate = Comparison(">=", col("i"), lit(0))
        n_mask = NUMPY.evaluate(predicate, chunk)
        s_mask = SCALAR.evaluate(predicate, chunk)
        assert n_mask.all() and s_mask.all()
        assert_bit_identical(n_mask, s_mask)


class TestActiveKernelState:
    def test_resolve_and_names(self):
        assert set(KERNEL_NAMES) == {"scalar", "numpy"}
        assert resolve_kernels(None).name == "numpy"
        assert resolve_kernels("scalar").name == "scalar"
        assert resolve_kernels(SCALAR) is SCALAR
        with pytest.raises(EngineError):
            resolve_kernels("simd")

    def test_set_kernels_returns_previous(self):
        before = get_kernels()
        previous = set_kernels("scalar")
        try:
            assert previous is before
            assert get_kernels().name == "scalar"
        finally:
            set_kernels(previous)
        assert get_kernels() is before
