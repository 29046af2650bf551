import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localtts.attention import (
    AttentionBundle,
    AttentionField,
    DefectMask,
    PropagationMatrix,
    QualityMap,
    build_propagation,
    bundle_from_document,
    contrastive_difference,
    empty_mask,
    field_from_raw_document,
    full_mask,
    mask_cardinality,
    mask_from_indices,
    mask_gen,
    mask_to_document,
    propagate,
    reduce_attention,
    reweight,
    threshold_mask,
)


def qmap(values, grid=None):
    values = np.asarray(values, dtype=float)
    return QualityMap(values=values, grid=grid or (1, values.size))


def afield(values, grid=None):
    values = np.asarray(values, dtype=float)
    return AttentionField(values=values, grid=grid or (1, values.size))


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
        bundle = AttentionBundle(orig=afield([1, 1]), pos=afield([0.3, 0.4]),
                                 neg=afield([0.3, 0.4]))
        np.testing.assert_array_equal(contrastive_difference(bundle).values, [0, 0])

    def test_elementwise_subtraction(self):
        bundle = AttentionBundle(orig=afield([1, 1]), pos=afield([0.2, 0.3]),
                                 neg=afield([0.6, 0.1]))
        np.testing.assert_allclose(contrastive_difference(bundle).values, [0.4, -0.2])

    def test_constant_shift(self):
        pos = np.array([0.1, 0.5, 0.2])
        bundle = AttentionBundle(orig=afield([1, 1, 1]), pos=afield(pos),
                                 neg=afield(pos + 0.25))
        np.testing.assert_allclose(contrastive_difference(bundle).values, 0.25)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="share one grid"):
            AttentionBundle(orig=afield([1, 1], (1, 2)), pos=afield([1, 1], (2, 1)),
                            neg=afield([1, 1], (1, 2)))


class TestBuildPropagation:
    def test_identical_queries_give_uniform_rows(self):
        matrix = build_propagation(np.ones((4, 3)))
        np.testing.assert_allclose(matrix.rows, 0.25)

    def test_large_scale_approaches_one_hot(self):
        matrix = build_propagation(np.array([[0.0], [50.0]]))
        assert matrix.rows[1, 1] > 0.999999

    def test_hand_softmax_with_sqrt_d_scaling(self):
        matrix = build_propagation(np.array([[1.0], [-1.0]]))
        expected = np.array([math.e ** 2 / (math.e ** 2 + 1), 1 / (math.e ** 2 + 1)])
        np.testing.assert_allclose(matrix.rows[0], expected, rtol=1e-12)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            build_propagation(np.zeros((3, 0)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            build_propagation(np.array([[np.inf], [0.0]]))

    def test_overflow_prevented_by_max_subtraction(self):
        matrix = build_propagation(np.array([[1e4], [1e4 - 1.0]]))
        assert np.all(np.isfinite(matrix.rows))
        np.testing.assert_allclose(matrix.rows.sum(axis=1), 1.0)


class TestPropagate:
    def test_identity_leaves_field_unchanged(self):
        matrix = PropagationMatrix(rows=np.eye(3))
        field = qmap([0.5, -1.0, 2.0], (1, 3))
        np.testing.assert_array_equal(propagate(matrix, field).values, field.values)

    def test_uniform_rows_average(self):
        matrix = PropagationMatrix(rows=np.full((4, 4), 0.25))
        out = propagate(matrix, qmap([1.0, 2.0, 3.0, 6.0], (2, 2)))
        np.testing.assert_allclose(out.values, 3.0)

    def test_hand_matrix_vector_product(self):
        matrix = PropagationMatrix(rows=np.array([[0.7, 0.3], [0.2, 0.8]]))
        out = propagate(matrix, qmap([1.0, 0.0]))
        np.testing.assert_allclose(out.values, [0.7, 0.2])

    def test_dimension_mismatch_rejected(self):
        matrix = PropagationMatrix(rows=np.eye(3))
        with pytest.raises(ValueError, match="does not match"):
            propagate(matrix, qmap([1.0, 2.0]))

    def test_kind_is_preserved(self):
        matrix = PropagationMatrix(rows=np.eye(2))
        assert isinstance(propagate(matrix, afield([1.0, 2.0])), AttentionField)
        assert isinstance(propagate(matrix, qmap([1.0, -2.0])), QualityMap)

    @given(st.integers(min_value=1, max_value=12), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_output_is_convex_combination(self, size, random):
        rng = np.random.default_rng(random.randrange(2 ** 32))
        queries = rng.normal(size=(size, 3))
        values = rng.normal(size=size) * 10
        out = propagate(build_propagation(queries), qmap(values, (1, size)))
        lo, hi = values.min(), values.max()
        slack = 1e-9 * (1 + abs(lo) + abs(hi))
        assert np.all(out.values >= lo - slack)
        assert np.all(out.values <= hi + slack)


class TestReweight:
    def test_zero_weight_returns_difference(self):
        diff = qmap([0.4, -0.2])
        out = reweight(diff, afield([0.9, 0.1]), 0.0)
        np.testing.assert_array_equal(out.values, diff.values)

    def test_hand_arithmetic_at_default_weight(self):
        out = reweight(qmap([0.4, -0.2]), afield([0.2, 0.6]), 0.5)
        np.testing.assert_allclose(out.values, [0.5, 0.1])

    def test_zero_difference_gives_scaled_prior(self):
        out = reweight(qmap([0.0, 0.0]), afield([0.2, 0.6]), 2.0)
        np.testing.assert_allclose(out.values, [0.4, 1.2])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            reweight(qmap([0.0]), afield([1.0]), -0.1)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            reweight(qmap([0.0, 0.0], (1, 2)), afield([1.0, 1.0], (2, 1)), 0.5)


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
        assert empty_mask((2, 3)).bits.sum() == 0
        assert full_mask((2, 3)).bits.sum() == 6

    def test_mask_from_indices(self):
        mask = mask_from_indices((2, 2), [3, 1])
        np.testing.assert_array_equal(mask.bits, [0, 1, 0, 1])
        with pytest.raises(ValueError, match="out of range"):
            mask_from_indices((2, 2), [4])


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
        # without queries the kernel propagates nothing: the step API is the reference
        rng = np.random.default_rng(random.randrange(2 ** 32))
        size = hs * ws
        draw = {"normal": lambda: rng.uniform(0.0, 2.0, size),
                "ties": lambda: rng.integers(0, 3, size).astype(float),
                "constant": lambda: np.full(size, 0.5)}[kind]
        bundle = AttentionBundle(*(afield(draw(), (hs, ws)) for _ in range(3)))
        expected = threshold_mask(reweight(contrastive_difference(bundle), bundle.orig, weight),
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


class TestInterchangeDocuments:
    def test_raw_document_roundtrip(self):
        doc = {
            "grid": [1, 2], "layers": 2, "heads": 1, "tokens": 1,
            "data": [0.0, 2.0, 4.0, 6.0],
        }
        field = field_from_raw_document(doc)
        np.testing.assert_allclose(field.values, [2.0, 4.0])

    def test_raw_document_missing_key(self):
        with pytest.raises(ValueError, match="missing key 'data'"):
            field_from_raw_document({"grid": [1, 1], "layers": 1, "heads": 1, "tokens": 1})

    def test_raw_document_wrong_length(self):
        doc = {"grid": [1, 2], "layers": 1, "heads": 1, "tokens": 1, "data": [1.0]}
        with pytest.raises(ValueError, match="entries"):
            field_from_raw_document(doc)

    def test_bundle_document(self):
        doc = {"grid": [1, 2], "orig": [1, 1], "pos": [0.5, 1], "neg": [1, 0.5]}
        bundle = bundle_from_document(doc)
        np.testing.assert_allclose(contrastive_difference(bundle).values, [0.5, -0.5])

    def test_mask_document(self):
        mask = mask_from_indices((2, 2), [0, 3])
        doc = mask_to_document(mask)
        assert doc == {"grid": [2, 2], "ratio": 0.5, "bits": [1, 0, 0, 1]}


def _bundle(size):
    return AttentionBundle(*(afield(np.ones(size)) for _ in range(3)))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: PropagationMatrix(rows=np.full((2, 3), 1 / 3)), "must be square",
                 id="propagation-not-square"),
    pytest.param(lambda: PropagationMatrix(rows=[[np.nan, 1.0], [0.5, 0.5]]), "non-finite",
                 id="propagation-non-finite"),
    pytest.param(lambda: PropagationMatrix(rows=[[1.5, -0.5], [0.5, 0.5]]), "non-negative",
                 id="propagation-negative"),
    pytest.param(lambda: PropagationMatrix(rows=[[0.5, 0.4], [0.5, 0.5]]), "sum to 1",
                 id="propagation-row-sum"),
    pytest.param(lambda: DefectMask(bits=[1, 0, 0], ratio=0.5, grid=(1, 2)), "length 2",
                 id="mask-bit-length"),
    pytest.param(lambda: DefectMask(bits=[2, 0], ratio=0.5, grid=(1, 2)), "0/1",
                 id="mask-bits-not-binary"),
    pytest.param(lambda: DefectMask.rows([[1, 0, 0]], (1, 2)), "length 2", id="mask-rows-length"),
    pytest.param(lambda: DefectMask.rows([1, 0], (1, 2)), "length 2", id="mask-rows-one-axis"),
    pytest.param(lambda: DefectMask.rows([[1, 0], [0, 2]], (1, 2)), "0/1",
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


def test_mask_rows_equal_masks_built_one_by_one():
    # the engine's masks: one array check for the block, the fields of per-row DefectMasks
    bits = np.array([[0, 0, 0, 0, 0, 0], [1, 0, 1, 1, 0, 0], [1, 1, 1, 1, 1, 1]], dtype=bool)
    for mask, row in zip(DefectMask.rows(bits, [2, 3]), bits):
        want = DefectMask(bits=row, ratio=row.sum() / row.size, grid=(2, 3))
        assert (mask.bits.dtype, mask.bits.tolist(), type(mask.ratio), mask.ratio, mask.grid) == (
            want.bits.dtype, want.bits.tolist(), type(want.ratio), want.ratio, want.grid)
