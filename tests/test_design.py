import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netcrf import (
    DesignMatrix,
    ModelKind,
    ModelSpec,
    NumericalError,
    OutOfSupportError,
    build_design,
    dgp_scenario,
    format_model_spec,
    parse_model_spec,
    simulate_frame,
    split_by_f,
)
from netcrf.design import _diagonal_blocks
from conftest import make_frame


def eval_label_oracle(label, d, t, f):
    """Independent label evaluator used to cross-check stored columns."""
    value = 1.0
    for atom in label.split(":"):
        if atom == "1":
            factor = 1.0
        elif atom == "D":
            factor = float(d)
        elif atom == "T":
            factor = float(t)
        elif atom == "F":
            factor = float(f)
        elif atom == "R":
            factor = t / f
        elif atom == "T^2":
            factor = float(t) ** 2
        elif atom.startswith("F^"):
            factor = float(f) ** int(atom[2:])
        elif atom.startswith("F="):
            factor = 1.0 if f == int(atom[2:]) else 0.0
        elif atom.startswith("T="):
            factor = 1.0 if t == int(atom[2:]) else 0.0
        else:
            raise AssertionError(f"unexpected atom {atom}")
        value *= factor
    return value


@pytest.fixture(scope="module")
def simulated_frame():
    from netcrf import build_geometric_network, generate_positions

    net = build_geometric_network(generate_positions(1000, 77), 0.025)
    return simulate_frame(net, dgp_scenario("iii"), 78)


class TestRowMappings:
    def test_t_model_row(self):
        frame = make_frame([1.0], [1], [2], [4])
        design = build_design(frame, ModelSpec.t_model())
        assert design.labels == ("1", "D", "T", "F")
        assert list(design.values[0]) == [1.0, 1.0, 2.0, 4.0]

    def test_r_model_row(self):
        frame = make_frame([1.0], [1], [2], [4])
        design = build_design(frame, ModelSpec.r_model())
        assert design.labels == ("1", "D", "R")
        assert list(design.values[0]) == [1.0, 1.0, 0.5]

    def test_tr_model_row(self):
        frame = make_frame([1.0], [1], [2], [4])
        design = build_design(frame, ModelSpec.tr_model())
        assert design.labels == ("1", "F", "D", "T", "R", "D:T", "D:R")
        assert list(design.values[0]) == [1.0, 4.0, 1.0, 2.0, 0.5, 2.0, 0.5]

    def test_crf2_power_expansion(self):
        frame = make_frame([1.0], [1], [1], [2])
        design = build_design(frame, ModelSpec.crf2(2))
        assert list(design.values[0]) == [1.0, 2.0, 4.0] * 4

    def test_crf2_order_zero_collapses_to_interaction_design(self):
        frame = make_frame([1.0], [1], [2], [4])
        design = build_design(frame, ModelSpec.crf2(0))
        assert design.labels == ("F^0", "D:F^0", "T:F^0", "D:T:F^0")
        assert list(design.values[0]) == [1.0, 1.0, 2.0, 2.0]

    def test_crf2_second_order_in_t(self):
        frame = make_frame([1.0], [1], [3], [4])
        design = build_design(frame, ModelSpec.crf2(1, t_order=2))
        assert design.labels[-4:] == ("T^2:F^0", "T^2:F^1", "D:T^2:F^0", "D:T^2:F^1")
        assert list(design.values[0][-4:]) == [9.0, 36.0, 9.0, 36.0]

    def test_first_column_is_constant_except_long(self):
        frame = make_frame([1.0, 2.0], [1, 0], [1, 0], [2, 1])
        for spec in (ModelSpec.t_model(), ModelSpec.r_model(), ModelSpec.tr_model(),
                     ModelSpec.crf2(1), ModelSpec.crf1_short(2)):
            work = frame.restrict_to_f(2) if spec.kind == ModelKind.CRF1_SHORT else frame
            design = build_design(work, spec)
            assert np.all(design.values[:, 0] == 1.0)
        long_design = build_design(frame, ModelSpec.crf1_long(f_max=2, t_max=2))
        assert long_design.labels[0] == "F=1"


class TestLabelValueAgreement:
    @pytest.mark.parametrize("spec", [
        ModelSpec.t_model(), ModelSpec.r_model(), ModelSpec.tr_model(),
        ModelSpec.crf2(2), ModelSpec.crf2(1, t_order=2),
        ModelSpec.crf1_long(f_max=12, t_max=8),
    ])
    def test_columns_recomputable_from_labels(self, spec, simulated_frame):
        frame = simulated_frame
        design = build_design(frame, spec)
        rows = range(0, frame.n_selected, 97)
        for col, label in enumerate(design.labels):
            for i in rows:
                expected = eval_label_oracle(label, frame.d[i], frame.t[i], frame.f[i])
                assert design.values[i, col] == expected


class TestNesting:
    def test_t_and_r_columns_lie_in_tr_span(self, simulated_frame):
        tr = build_design(simulated_frame, ModelSpec.tr_model()).values
        for spec in (ModelSpec.t_model(), ModelSpec.r_model()):
            sub = build_design(simulated_frame, spec).values
            _, res, *_ = np.linalg.lstsq(tr, sub, rcond=None)
            fitted = tr @ np.linalg.lstsq(tr, sub, rcond=None)[0]
            assert np.max(np.abs(fitted - sub)) < 1e-8


class TestCrf1Long:
    def test_column_count_formula(self):
        # per f: one level dummy, one own-treatment interaction, and two
        # blocks of min(f, t_max) treated-friend dummies
        frame = make_frame([0.0], [0], [0], [1])
        design = build_design(frame, ModelSpec.crf1_long(f_max=20, t_max=10))
        expected = sum(2 + 2 * min(f, 10) for f in range(1, 21))
        assert design.n_cols == expected == 350

    def test_small_frame_structure(self):
        frame = make_frame([1.0, 2.0, 3.0], [1, 0, 1], [1, 0, 2], [2, 1, 2])
        design = build_design(frame, ModelSpec.crf1_long(f_max=2, t_max=2))
        assert design.labels == (
            "F=1", "D:F=1", "T=1:F=1", "D:T=1:F=1",
            "F=2", "D:F=2", "T=1:F=2", "T=2:F=2", "D:T=1:F=2", "D:T=2:F=2",
        )
        # row 0: d=1, t=1, f=2
        assert list(design.values[0]) == [0, 0, 0, 0, 1, 1, 1, 0, 1, 0]

    def test_f_beyond_support_rejected(self):
        frame = make_frame([1.0], [0], [0], [5])
        with pytest.raises(OutOfSupportError, match="F=5"):
            build_design(frame, ModelSpec.crf1_long(f_max=3, t_max=3))

    def test_t_beyond_support_rejected(self):
        frame = make_frame([1.0], [0], [4], [5])
        with pytest.raises(OutOfSupportError, match="T=4"):
            build_design(frame, ModelSpec.crf1_long(f_max=5, t_max=2))

    def test_defaults_infer_support_from_frame(self):
        frame = make_frame([1.0, 2.0], [0, 1], [1, 3], [2, 3])
        design = build_design(frame, ModelSpec.crf1_long())
        assert "F=3" in design.labels
        assert "T=3:F=3" in design.labels


class TestCrf1Short:
    def test_labels(self):
        frame = make_frame([1.0, 2.0], [0, 1], [1, 2], [2, 2])
        design = build_design(frame, ModelSpec.crf1_short(2))
        assert design.labels == ("1", "D", "T=1", "T=2", "D:T=1", "D:T=2")

    def test_requires_filtered_frame(self):
        frame = make_frame([1.0, 2.0], [0, 1], [1, 2], [2, 3])
        with pytest.raises(ValueError, match="restricted"):
            build_design(frame, ModelSpec.crf1_short(2))


class TestSplitByF:
    def test_two_groups(self):
        frame = make_frame([1.0, 2.0, 3.0], [0, 1, 0], [1, 0, 2], [1, 1, 3])
        groups = split_by_f(frame)
        assert [(f, sub.n_selected) for f, sub in groups] == [(1, 2), (3, 1)]

    def test_single_group_identity(self):
        frame = make_frame([1.0, 2.0], [0, 1], [1, 2], [2, 2])
        groups = split_by_f(frame)
        assert len(groups) == 1
        assert np.array_equal(groups[0][1].y, frame.y)

    def test_partition_covers_frame(self, simulated_frame):
        groups = split_by_f(simulated_frame)
        assert sum(sub.n_selected for _, sub in groups) == simulated_frame.n_selected
        assert [f for f, _ in groups] == sorted(f for f, _ in groups)

    def test_empty_frame_rejected(self):
        frame = make_frame([], [], [], [])
        with pytest.raises(ValueError):
            split_by_f(frame)


class TestSpecStrings:
    @pytest.mark.parametrize("text", [
        "t", "r", "tr", "crf2:J=2", "crf2:J=3,t_order=2",
        "crf1long:f_max=12,t_max=10", "crf1short:f=3",
    ])
    def test_round_trip(self, text):
        assert format_model_spec(parse_model_spec(text)) == text

    def test_typo_lists_valid_forms(self):
        with pytest.raises(ValueError, match="valid forms"):
            parse_model_spec("crf3:J=2")

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            parse_model_spec("crf2")
        with pytest.raises(ValueError):
            parse_model_spec("crf2:J=x")
        with pytest.raises(ValueError):
            parse_model_spec("crf1short:f=0")

    @pytest.mark.parametrize("text, saturated", [
        ("t", False), ("r", False), ("tr", False), ("crf2:J=2", False),
        ("crf1long", True), ("crf1short:f=3", True),
    ])
    def test_saturated_kinds(self, text, saturated):
        assert parse_model_spec(text).saturated is saturated

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ModelSpec.crf2(-1)
        with pytest.raises(ValueError):
            ModelSpec.crf2(1, t_order=3)
        with pytest.raises(ValueError):
            ModelSpec.crf1_short(0)

    def test_empty_frame_rejected(self):
        frame = make_frame([], [], [], [])
        with pytest.raises(ValueError):
            build_design(frame, ModelSpec.t_model())


class TestNonFiniteDesign:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_names_the_first_entry_by_row_and_column_label(self, value):
        values = np.ones((6, 3))
        values[4, 2] = value
        values[5, 0] = np.nan
        message = re.escape(f"design row 4, column 'c' is not finite ({value})")
        with pytest.raises(ValueError, match=message):
            DesignMatrix(values=values, labels=("a", "b", "c"))

    def test_overflowing_power_column_is_rejected(self):
        # 40.0 ** 193 is the first power of 40 beyond the float64 range; an
        # overflowing design is a numerical failure, reported without warnings
        # and by unit row (unit 0 lies in the fourth occupied cell)
        frame = make_frame(np.zeros(4), [0, 0, 1, 1], [2, 0, 1, 0], [40, 2, 3, 40])
        message = re.escape("design row 0, column 'F^193' is not finite (inf)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=message):
                build_design(frame, ModelSpec.crf2(200))


def grown_blocks(values):
    """The block search without the one-block shortcut: each block grows from
    its first column through the rows and columns its nonzeros reach."""
    k = values.shape[1]
    nonzero = values != 0
    blocks, seen = [], np.zeros(k, dtype=bool)
    for first in range(k):
        if seen[first]:
            continue
        cols = np.arange(k) == first
        while True:
            rows = nonzero[:, cols].any(axis=1)
            grown = cols | nonzero[rows].any(axis=0)
            if (grown == cols).all():
                break
            cols = grown
        seen |= cols
        rows, cols = np.flatnonzero(rows), np.flatnonzero(cols)
        blocks.append((rows, cols, values[np.ix_(rows, cols)]))
    return blocks


@st.composite
def patterns_with_a_full_column(draw):
    """Sparse matrices with a column without zeros somewhere among sparse
    columns, and all-zero columns before and after them."""
    m = draw(st.integers(1, 8))
    sparse = st.lists(st.sampled_from([0.0, 0.0, 1.0, -2.5, 0.25]), min_size=m, max_size=m)
    full = st.lists(st.sampled_from([1.0, -3.0, 0.5, 7.0]), min_size=m, max_size=m)
    middle = draw(st.lists(sparse, max_size=5))
    middle.insert(draw(st.integers(0, len(middle))), draw(full))
    zeros = [0.0] * m
    columns = [zeros] * draw(st.integers(0, 3)) + middle + [zeros] * draw(st.integers(0, 3))
    return np.array(columns).T.copy()


class TestDiagonalBlocks:
    @settings(deadline=None, max_examples=200)
    @given(patterns_with_a_full_column())
    def test_one_block_shortcut_equals_the_grown_blocks(self, values):
        got, want = _diagonal_blocks(values), grown_blocks(values)
        assert len(got) == len(want)
        for (rows, cols, block), (rows_w, cols_w, block_w) in zip(got, want):
            for a, b in ((rows, rows_w), (cols, cols_w), (block, block_w)):
                assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)

    def test_one_block_without_empty_columns_is_the_matrix_itself(self):
        values = np.array([[1.0, 0.0, 2.0], [3.0, 4.0, 0.0]])
        [(rows, cols, block)] = _diagonal_blocks(values)
        assert block is values
        assert rows.tolist() == [0, 1] and cols.tolist() == [0, 1, 2]
