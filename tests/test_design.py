import re
import warnings

import numpy as np
import pytest

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
)
from netcrf.design import _non_finite, design_values
from conftest import make_frame, matrix_design


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
    # SampleFrame.restrict_to_f, which crf1short fits on
    def test_two_groups(self):
        frame = make_frame([1.0, 2.0, 3.0], [0, 1, 0], [1, 0, 2], [1, 1, 3])
        assert [frame.restrict_to_f(f).n_selected for f in (1, 2, 3)] == [2, 0, 1]
        assert frame.restrict_to_f(3).y.tolist() == [3.0]

    def test_single_group_identity(self):
        frame = make_frame([1.0, 2.0], [0, 1], [1, 2], [2, 2])
        sub = frame.restrict_to_f(2)
        for name in ("y", "d", "t", "f", "ids"):
            assert np.array_equal(getattr(sub, name), getattr(frame, name))
        assert sub.n_total == frame.n_total

    def test_partition_covers_frame(self, simulated_frame):
        groups = [simulated_frame.restrict_to_f(f) for f in np.unique(simulated_frame.f)]
        assert sum(sub.n_selected for sub in groups) == simulated_frame.n_selected
        ids = np.sort(np.concatenate([sub.ids for sub in groups]))
        assert np.array_equal(ids, np.sort(simulated_frame.ids))


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
        # an argument given twice, or an integer in a form only Python reads
        for text in ("crf2:J=2,J=3", "crf1long:f_max=3,f_max=5", "crf2:J=1_0",
                     "crf1short:f=\u0663", "crf2:J=2,t_order=1,t_order=2"):
            with pytest.raises(ValueError, match="unrecognized model spec .* valid forms"):
                parse_model_spec(text)
        with pytest.raises(ValueError, match="invalid model spec 'crf2:J=-1': .*J >= 0"):
            parse_model_spec("crf2:J=-1")

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
        # the check build_design runs on its cell rows, here one cell per unit
        values = np.ones((6, 3))
        values[4, 2] = value
        values[5, 0] = np.nan
        message = f"design row 4, column 'c' is not finite ({value})"
        assert _non_finite(values, ("a", "b", "c"), np.arange(6)) == message

    def test_zero_times_an_overflowing_power_is_named_nan(self):
        # D:F^193 at d = 0 is 0 * inf; a crf2 design names the F^193 overflow
        # instead, since that column comes first
        with np.errstate(over="ignore", invalid="ignore"):
            values = design_values(["D:F^193"], [0, 1], [0, 0], [40, 40])
        assert (_non_finite(values, ["D:F^193"], np.arange(2))
                == "design row 0, column 'D:F^193' is not finite (nan)")

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


class TestDesignMatrixInput:
    CELLS = matrix_design(np.zeros((3, 1)), ("a",)).cells  # three cells of one unit each

    def test_keeps_a_read_only_copy(self):
        mine = np.arange(6.0).reshape(3, 2)
        x = DesignMatrix(mine, ("a", "b"), self.CELLS)
        assert mine.flags.writeable and not x.cell_values.flags.writeable
        mine[0, 0] = 9.0
        assert x.cell_values[0, 0] == 0.0

    @pytest.mark.parametrize("shape", [(5, 7), (3, 2), (2, 1), (3,), (1, 3, 1)])
    def test_shape_must_be_cells_by_labels(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"shape (3, 1), got {shape}")):
            DesignMatrix(np.zeros(shape), ("a",), self.CELLS)


class TestOwnCell:
    def test_own_cells_follow_the_labels(self):
        # cells of this frame: (0,0,1) (1,0,1) (1,1,1) (0,1,2) (1,2,2)
        frame = make_frame(np.zeros(6), [0, 1, 1, 0, 1, 1], [0, 0, 1, 1, 2, 2], [1, 1, 1, 2, 2, 2])
        x = build_design(frame, ModelSpec.crf1_long(f_max=2, t_max=2))
        owners = dict(zip(x.labels, x.own_cell.tolist()))
        assert owners == {"F=1": 0, "D:F=1": 1, "T=1:F=1": -1, "D:T=1:F=1": 2,
                          "F=2": -1, "D:F=2": -1, "T=1:F=2": 3, "T=2:F=2": -1,
                          "D:T=1:F=2": -1, "D:T=2:F=2": 4}
        short = build_design(frame.restrict_to_f(2), ModelSpec.crf1_short(2))
        assert dict(zip(short.labels, short.own_cell.tolist())) == {
            "1": -1, "D": -1, "T=1": 0, "T=2": -1, "D:T=1": -1, "D:T=2": 1}

    def test_other_designs_have_no_own_cells(self):
        frame = make_frame(np.zeros(3), [0, 1, 1], [0, 1, 2], [1, 2, 2])
        assert build_design(frame, ModelSpec.tr_model()).own_cell is None
