import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localtts import attention
from localtts.attention import (
    AttentionBundle,
    AttentionField,
    DefectMask,
    QualityMap,
    _mask_bits,
    _mask_rows,
    build_propagation,
    mask_cardinality,
    mask_from_indices,
    mask_gen,
    mask_to_document,
    reduce_attention,
    threshold_mask,
)
from localtts.config import ConfigError, validate_config


def qmap(values, grid=None):
    values = np.asarray(values, dtype=float)
    return QualityMap(values=values, grid=grid or (1, values.size))


def afield(values, grid=None):
    values = np.asarray(values, dtype=float)
    return AttentionField(values=values, grid=grid or (1, values.size))


def kernel_quality(orig, pos, neg, weight=0.0, rows=None):
    """The quality values the mask kernel thresholds for one row of fields:
    neg - pos smoothed by the propagation rows (none when None), plus weight
    times the smoothed origin field clamped at zero."""
    fields = (np.asarray(field, dtype=float)[None] for field in (orig, pos, neg))
    weights = None if rows is None else np.asarray(rows, dtype=float)[None]
    with mock.patch.object(attention, "_top_bits", lambda quality, ratio: quality):
        return _mask_bits(*fields, weights, weight, 0.5)[0]


class TestReduceAttention:
    def test_identity_reduction(self):
        raw = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 1, 4)
        out = reduce_attention(raw, (2, 2))
        np.testing.assert_array_equal(out.values, [1.0, 2.0, 3.0, 4.0])

    def test_mean_over_layers(self):
        # layer slices (0,2) and (4,6): hand mean (2,4)
        raw = np.array([[[[0.0, 2.0]]], [[[4.0, 6.0]]]])
        out = reduce_attention(raw, (1, 2))
        np.testing.assert_array_equal(out.values, [2.0, 4.0])

    def test_constant_mean(self):
        raw = np.full((1, 2, 2, 1), 0.7)
        out = reduce_attention(raw, (1, 1))
        np.testing.assert_allclose(out.values, [0.7])

    @pytest.mark.parametrize("shape", [(0, 1, 1, 4), (1, 0, 1, 4), (1, 1, 0, 4)])
    def test_empty_axis_rejected(self, shape):
        with pytest.raises(ValueError, match="empty axis"):
            reduce_attention(np.zeros(shape), (2, 2))

    def test_nonfinite_rejected(self):
        raw = np.ones((1, 1, 1, 4))
        raw[0, 0, 0, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            reduce_attention(raw, (2, 2))

    def test_grid_size_mismatch(self):
        with pytest.raises(ValueError, match="positions"):
            reduce_attention(np.ones((1, 1, 1, 4)), (2, 3))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            reduce_attention(-np.ones((1, 1, 1, 4)), (2, 2))


class TestContrastiveDifference:
    def test_equal_fields_give_zero(self):
        np.testing.assert_array_equal(kernel_quality([1, 1], [0.3, 0.4], [0.3, 0.4]), [0, 0])

    def test_elementwise_subtraction(self):
        np.testing.assert_allclose(kernel_quality([1, 1], [0.2, 0.3], [0.6, 0.1]), [0.4, -0.2])

    def test_constant_shift(self):
        pos = np.array([0.1, 0.5, 0.2])
        np.testing.assert_allclose(kernel_quality([1, 1, 1], pos, pos + 0.25), 0.25)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share one grid"):
            AttentionBundle(orig=afield([1, 1], (1, 2)), pos=afield([1, 1], (2, 1)),
                            neg=afield([1, 1], (1, 2)))


class TestBuildPropagation:
    def test_identical_queries_give_uniform_rows(self):
        matrix = build_propagation(np.ones((4, 3)))
        np.testing.assert_allclose(matrix, 0.25)

    def test_large_scale_approaches_one_hot(self):
        matrix = build_propagation(np.array([[0.0], [50.0]]))
        assert matrix[1, 1] > 0.999999

    def test_hand_softmax_with_sqrt_d_scaling(self):
        matrix = build_propagation(np.array([[1.0], [-1.0]]))
        expected = np.array([math.e ** 2 / (math.e ** 2 + 1), 1 / (math.e ** 2 + 1)])
        np.testing.assert_allclose(matrix[0], expected, rtol=1e-12)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            build_propagation(np.zeros((3, 0)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            build_propagation(np.array([[np.inf], [0.0]]))

    def test_overflow_prevented_by_max_subtraction(self):
        matrix = build_propagation(np.array([[1e4], [1e4 - 1.0]]))
        assert np.all(np.isfinite(matrix))
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0)


class TestPropagate:
    # the contrast neg - pos is the propagated field: pos = 0 makes it neg
    def test_identity_leaves_field_unchanged(self):
        field = [0.5, -1.0, 2.0]
        np.testing.assert_array_equal(kernel_quality([0] * 3, [0] * 3, field, rows=np.eye(3)),
                                      field)

    def test_uniform_rows_average(self):
        out = kernel_quality([0] * 4, [0] * 4, [1.0, 2.0, 3.0, 6.0], rows=np.full((4, 4), 0.25))
        np.testing.assert_allclose(out, 3.0)

    def test_hand_matrix_vector_product(self):
        out = kernel_quality([0, 0], [0, 0], [1.0, 0.0], rows=[[0.7, 0.3], [0.2, 0.8]])
        np.testing.assert_allclose(out, [0.7, 0.2])

    def test_kind_is_preserved(self):
        # the propagated origin field stays an attention field (clamped at zero), the
        # propagated contrast a signed quality map
        out = kernel_quality([-1.0, 2.0], [2.0, 0.0], [0.0, 0.0], weight=1.0, rows=np.eye(2))
        np.testing.assert_array_equal(out, [-2.0, 2.0])

    @given(st.integers(min_value=1, max_value=12), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_output_is_convex_combination(self, size, random):
        rng = np.random.default_rng(random.randrange(2 ** 32))
        queries = rng.normal(size=(size, 3))
        values = rng.normal(size=size) * 10
        out = kernel_quality(np.zeros(size), np.zeros(size), values,
                             rows=build_propagation(queries))
        lo, hi = values.min(), values.max()
        slack = 1e-9 * (1 + abs(lo) + abs(hi))
        assert np.all(out >= lo - slack)
        assert np.all(out <= hi + slack)


class TestReweight:
    # the contrast neg - pos with pos = 0 is neg, the prior the origin field
    def test_zero_weight_returns_difference(self):
        diff = [0.4, -0.2]
        np.testing.assert_array_equal(kernel_quality([0.9, 0.1], [0, 0], diff, 0.0), diff)

    def test_hand_arithmetic_at_default_weight(self):
        out = kernel_quality([0.2, 0.6], [0, 0], [0.4, -0.2], 0.5)
        np.testing.assert_allclose(out, [0.5, 0.1])

    def test_zero_difference_gives_scaled_prior(self):
        out = kernel_quality([0.2, 0.6], [0, 0], [0.0, 0.0], 2.0)
        np.testing.assert_allclose(out, [0.4, 1.2])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            mask_gen(_bundle(2), None, -0.1, 0.5)


class TestThresholdMask:
    def test_sort_and_select_top_two(self):
        mask = threshold_mask(qmap([0.1, 0.9, 0.4, 0.7], (2, 2)), 0.5)
        np.testing.assert_array_equal(mask.bits, [0, 1, 0, 1])

    def test_all_ties_break_by_ascending_index(self):
        mask = threshold_mask(qmap([1.0, 1.0, 1.0, 1.0], (2, 2)), 0.25)
        np.testing.assert_array_equal(mask.bits, [1, 0, 0, 0])

    def test_ceiling_keeps_at_least_one(self):
        mask = threshold_mask(qmap([0.0, 1.0, 2.0, 3.0], (2, 2)), 0.01)
        assert mask.bits.sum() == 1

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.2, 1.5])
    def test_ratio_out_of_range_rejected(self, ratio):
        with pytest.raises(ValueError, match="strictly inside"):
            threshold_mask(qmap([1.0, 2.0]), ratio)

    def test_nonfinite_values_rejected_at_construction(self):
        # a quality map can never carry NaN into thresholding
        with pytest.raises(ValueError, match="non-finite"):
            QualityMap(values=np.array([1.0, np.nan]), grid=(1, 2))

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_cardinality_is_exact(self, hs, ws, ratio, tie_heavy, random):
        rng = np.random.default_rng(random.randrange(2 ** 32))
        size = hs * ws
        if tie_heavy:
            values = rng.integers(0, 3, size=size).astype(float)
        else:
            values = rng.normal(size=size)
        mask = threshold_mask(qmap(values, (hs, ws)), ratio)
        assert int(mask.bits.sum()) == mask_cardinality(ratio, size)
        assert mask_cardinality(ratio, size) == math.ceil(round(ratio * size, 9))

    def test_selected_values_dominate_unselected(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = rng.normal(size=12)
            mask = threshold_mask(qmap(values, (3, 4)), 0.4)
            chosen = values[mask.bits == 1]
            rest = values[mask.bits == 0]
            assert chosen.min() >= rest.max() - 1e-12


class TestMaskCardinality:
    def test_exact_fraction_is_not_inflated(self):
        # 0.58 * 50 floats to 29.000000000000004; the snap keeps it at 29
        assert mask_cardinality(0.58, 50) == 29
        assert mask_cardinality(3 / 7, 7) == 3

    def test_plain_ceiling(self):
        assert mask_cardinality(0.01, 4) == 1
        assert mask_cardinality(0.26, 4) == 2


class TestDefectMask:
    def test_cardinality_enforced(self):
        with pytest.raises(ValueError, match="requires exactly"):
            DefectMask(bits=np.array([1, 1, 0, 0]), ratio=0.25, grid=(2, 2))

    def test_ratio_bounds(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            DefectMask(bits=np.array([1, 0]), ratio=1.5, grid=(1, 2))

    def test_empty_and_full_helpers(self):
        empty, full = mask_from_indices((2, 3), []), mask_from_indices((2, 3), range(6))
        assert (empty.bits.sum(), empty.ratio, full.bits.sum(), full.ratio) == (0, 0.0, 6, 1.0)

    def test_mask_from_indices(self):
        mask = mask_from_indices((2, 2), [3, 1])
        np.testing.assert_array_equal(mask.bits, [0, 1, 0, 1])
        with pytest.raises(ValueError, match="out of range"):
            mask_from_indices((2, 2), [4])

    @pytest.mark.parametrize("indices", [[1.7], np.array([True, False, True, False])])
    def test_mask_from_indices_rejects_non_integer_indices(self, indices):
        # a float index would be truncated, a boolean array read as the indices 0 and 1
        with pytest.raises(ValueError, match="must be integers"):
            mask_from_indices((2, 2), indices)


class TestMaskGen:
    @staticmethod
    def planted_bundle(size, planted, margin=0.5):
        pos = np.ones(size)
        neg = np.ones(size)
        neg[list(planted)] += margin
        orig = np.ones(size)
        return AttentionBundle(orig=afield(orig, (1, size)), pos=afield(pos, (1, size)),
                               neg=afield(neg, (1, size)))

    def test_planted_positions_recovered_with_identity_queries(self):
        rng = np.random.default_rng(0)
        for size in (4, 9, 16, 40, 64):
            planted = sorted(rng.choice(size, size=max(1, size // 5), replace=False))
            bundle = self.planted_bundle(size, planted)
            # near-orthogonal queries: propagation is effectively identity
            queries = np.eye(size) * 60.0
            mask = mask_gen(bundle, queries, 0.5, len(planted) / size)
            # brute force: the planted set is exactly the top-k of neg-pos
            diff = bundle.neg.values - bundle.pos.values
            expected = np.argsort(-diff, kind="stable")[: len(planted)]
            assert set(mask.selected.tolist()) == set(int(i) for i in expected)
            assert set(mask.selected.tolist()) == set(int(i) for i in planted)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.0, max_value=3.0),
        st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
        st.sampled_from(["normal", "ties", "constant"]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_queries_equals_the_step_pipeline(self, hs, ws, weight, ratio, kind, random):
        # without queries the kernel smooths nothing: the plain formula is the reference
        rng = np.random.default_rng(random.randrange(2 ** 32))
        size = hs * ws
        draw = {"normal": lambda: rng.uniform(0.0, 2.0, size),
                "ties": lambda: rng.integers(0, 3, size).astype(float),
                "constant": lambda: np.full(size, 0.5)}[kind]
        bundle = AttentionBundle(*(afield(draw(), (hs, ws)) for _ in range(3)))
        orig, pos, neg = bundle.orig.values, bundle.pos.values, bundle.neg.values
        expected = threshold_mask(qmap((neg - pos) + weight * np.maximum(orig, 0), (hs, ws)),
                                  ratio)
        mask = mask_gen(bundle, None, weight, ratio)
        np.testing.assert_array_equal(mask.bits, expected.bits)
        assert (mask.ratio, mask.grid) == (expected.ratio, expected.grid)

    def test_degenerate_contrast_selects_leading_indices(self):
        size = 8
        bundle = self.planted_bundle(size, [], margin=0.0)
        mask = mask_gen(bundle, np.eye(size), 0.5, 0.25)
        np.testing.assert_array_equal(mask.selected, [0, 1])

    def test_deterministic(self):
        bundle = self.planted_bundle(9, [2, 5])
        queries = np.random.default_rng(1).normal(size=(9, 4))
        a = mask_gen(bundle, queries, 0.5, 0.3)
        b = mask_gen(bundle, queries, 0.5, 0.3)
        np.testing.assert_array_equal(a.bits, b.bits)

    def test_zero_weight_ignores_origin_field(self):
        rng = np.random.default_rng(2)
        size = 16
        planted = [3, 7, 11]
        queries = rng.normal(size=(size, 4))
        bundle = self.planted_bundle(size, planted)
        perturbed = AttentionBundle(
            orig=afield(rng.uniform(0.0, 5.0, size=size), (1, size)),
            pos=bundle.pos, neg=bundle.neg)
        a = mask_gen(bundle, queries, 0.0, 0.25)
        b = mask_gen(perturbed, queries, 0.0, 0.25)
        np.testing.assert_array_equal(a.bits, b.bits)


def mask_inputs(source: dict) -> dict:
    """mask_gen's inputs as validate_config reads them from a maskgen section."""
    return validate_config({"kind": "maskgen", "maskgen": source}).maskgen


class TestInterchangeDocuments:
    # the attention documents are read by validate_config: each raw document stands for
    # all three fields
    def test_raw_document_roundtrip(self):
        doc = {
            "grid": [1, 2], "layers": 2, "heads": 1, "tokens": 1,
            "data": [0.0, 2.0, 4.0, 6.0],
        }
        field = mask_inputs({"raw": dict.fromkeys(("orig", "pos", "neg"), doc)})["bundle"].orig
        np.testing.assert_allclose(field.values, [2.0, 4.0])

    def test_raw_document_missing_key(self):
        doc = {"grid": [1, 1], "layers": 1, "heads": 1, "tokens": 1}
        with pytest.raises(ConfigError, match="missing key 'data'"):
            mask_inputs({"raw": dict.fromkeys(("orig", "pos", "neg"), doc)})

    def test_raw_document_wrong_length(self):
        doc = {"grid": [1, 2], "layers": 1, "heads": 1, "tokens": 1, "data": [1.0]}
        with pytest.raises(ConfigError, match="has 1 entries, expected 2"):
            mask_inputs({"raw": dict.fromkeys(("orig", "pos", "neg"), doc)})

    def test_bundle_document(self):
        doc = {"grid": [1, 2], "orig": [1, 1], "pos": [0.5, 1], "neg": [1, 0.5]}
        bundle = mask_inputs({"bundle": doc})["bundle"]
        np.testing.assert_allclose(bundle.neg.values - bundle.pos.values, [0.5, -0.5])

    def test_mask_document(self):
        mask = mask_from_indices((2, 2), [0, 3])
        doc = mask_to_document(mask)
        assert doc == {"grid": [2, 2], "ratio": 0.5, "bits": [1, 0, 0, 1]}


def _bundle(size):
    return AttentionBundle(*(afield(np.ones(size)) for _ in range(3)))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: DefectMask(bits=[1, 0, 0], ratio=0.5, grid=(1, 2)), "length 2",
                 id="mask-bit-length"),
    pytest.param(lambda: DefectMask(bits=[2, 0], ratio=0.5, grid=(1, 2)), "0/1",
                 id="mask-bits-not-binary"),
    pytest.param(lambda: _mask_rows([[1, 0, 0]], (1, 2)), "length 2", id="mask-rows-length"),
    pytest.param(lambda: _mask_rows([1, 0], (1, 2)), "length 2", id="mask-rows-one-axis"),
    pytest.param(lambda: _mask_rows([[1, 0], [0, 2]], (1, 2)), "0/1",
                 id="mask-rows-not-binary"),
    pytest.param(lambda: reduce_attention(np.ones((1, 1, 2)), (1, 2)), "4 axes",
                 id="raw-three-axes"),
    pytest.param(lambda: reduce_attention(np.ones((1, 0, 1, 2)), (1, 2)), "empty axis",
                 id="raw-empty-axis"),
    pytest.param(lambda: build_propagation(np.ones(4)), "2-D matrix", id="queries-one-axis"),
    pytest.param(lambda: mask_gen(_bundle(4), np.eye(3), 0.5, 0.5), "does not match field size",
                 id="queries-size-mismatch"),
])
def test_input_checks_reject_their_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()
