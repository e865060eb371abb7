import numpy as np
import pytest

from sidnn.data import (
    SequenceData,
    Standardizer,
    WindowPlan,
    fit_standardizer,
    load_csv,
    load_descriptor,
    sample_windows,
    split_estimation,
    synth_wiener_hammerstein,
    wiener_hammerstein_response,
)
from sidnn.errors import DataError, ParameterError, ParseError, PlanError, SchemaError

from oracles import synth_wiener_hammerstein_scalars


def make_data(T=100, I=1, O=1, seed=0, n_seq=1):
    rng = np.random.default_rng(seed)
    seqs = [(rng.standard_normal((T, I)), rng.standard_normal((T, O)))
            for _ in range(n_seq)]
    return SequenceData(sequences=seqs)


# ---------------------------------------------------------------------------
# load_csv
# ---------------------------------------------------------------------------


def test_load_csv_two_rows(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("u,y\n1,2\n3,4\n")
    data = load_csv(path, ["u"], ["y"])
    u, y = data.sequences[0]
    np.testing.assert_array_equal(u.ravel(), [1.0, 3.0])
    np.testing.assert_array_equal(y.ravel(), [2.0, 4.0])


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(SchemaError) as exc:
        load_csv(path, ["u"], ["b"])
    assert "'u'" in str(exc.value)


def test_load_csv_parse_error_reports_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("u,y\n1,xx\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path, ["u"], ["y"])
    assert "row 2" in str(exc.value)


def test_load_csv_rejects_nan_cell(tmp_path):
    # float("nan") parses, so the value must be caught before it poisons
    # the fitted standardizer
    path = tmp_path / "d.csv"
    path.write_text("u,y\n1,2\nnan,3\n4,5\n")
    with pytest.raises(DataError) as exc:
        load_csv(path, ["u"], ["y"])
    assert "non-finite" in str(exc.value)


@pytest.mark.parametrize("body,row,message", [
    ("1,2\n3\n5,6\n", 3, "list index out of range"),
    ("1,2\n3,\n5,6\n", 3, "could not convert string to float: ''"),
    ("1,2\n3,4\n5,x\n", 4, "could not convert string to float: 'x'"),
    ("1,2\n\n3,4\n5,x\n7\n", 5, "could not convert string to float: 'x'"),
], ids=["short_row", "empty_field", "bad_value", "after_an_empty_row"])
def test_load_csv_parse_error_names_the_first_bad_row(tmp_path, body, row, message):
    # the columns are parsed at once; a short row or a bad value falls back
    # to the row loop, whose error names the row (empty rows counted)
    path = tmp_path / "d.csv"
    path.write_text("u,y\n" + body)
    with pytest.raises(ParseError) as exc:
        load_csv(path, ["u"], ["y"])
    assert str(exc.value) == f"{path}: row {row}: {message}"


def test_load_csv_parses_each_value_as_float_does(tmp_path):
    # whitespace, underscores, signs and exponents, and a row wider than
    # the header; the column-wise parse must give float()'s values bitwise
    cells = [" 1.5 ", "1_000", "-2e-3", "+7", "0.1", "3.0000000000000004"]
    path = tmp_path / "d.csv"
    path.write_text("u,y\n" + "".join(f"{c},{c}{',9' * (i == 2)}\n"
                                      for i, c in enumerate(cells)))
    u, y = load_csv(path, ["u"], ["y"]).sequences[0]
    expected = [float(c) for c in cells]
    assert u.ravel().tolist() == expected and y.ravel().tolist() == expected
    assert u.shape == y.shape == (len(cells), 1)
    assert u.flags["C_CONTIGUOUS"] and y.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "NaN"])
def test_load_csv_rejects_non_finite_spellings(tmp_path, cell):
    # each parses as float() parses it, so the finiteness gate catches it
    path = tmp_path / "d.csv"
    path.write_text(f"u,y\n1,2\n3,{cell}\n")
    with pytest.raises(DataError) as exc:
        load_csv(path, ["u"], ["y"])
    assert "non-finite" in str(exc.value)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_sequence_data_names_a_nonfinite_sequence(bad):
    # a NaN used to reach fit as a NaN standardizer std, which passes its
    # zero-variance check, and failed there as a diverged lr finder
    clean = (np.zeros((4, 1)), np.ones((4, 1)))
    y = np.ones((4, 1))
    y[2, 0] = bad
    with pytest.raises(DataError, match="sequence 1: non-finite values in y"):
        SequenceData(sequences=[clean, (np.zeros((4, 1)), y)])


def test_load_descriptor_round_trip(tmp_path):
    (tmp_path / "s.csv").write_text("u,y\n1,2\n3,4\n5,6\n")
    desc = tmp_path / "d.json"
    desc.write_text(
        '{"files": ["s.csv"], "u_cols": ["u"], "y_cols": ["y"],'
        ' "transient_n": 1, "unit_scale": 1000.0, "name": "demo"}'
    )
    data, meta = load_descriptor(desc)
    assert data.transient_n == 1
    assert meta["unit_scale"] == 1000.0
    assert meta["name"] == "demo"
    assert data.sequences[0][0].shape == (3, 1)


def test_load_descriptor_missing_fields(tmp_path):
    desc = tmp_path / "d.json"
    desc.write_text('{"u_cols": ["u"]}')
    with pytest.raises(SchemaError) as exc:
        load_descriptor(desc)
    assert "files" in str(exc.value)


# ---------------------------------------------------------------------------
# standardizer
# ---------------------------------------------------------------------------


def test_fit_standardizer_simple_channel():
    data = SequenceData(sequences=[(np.array([[1.0], [3.0]]), np.array([[1.0], [3.0]]))])
    std = fit_standardizer(data)
    assert std.u_mean[0] == 2.0 and std.u_std[0] == 1.0
    np.testing.assert_array_equal(std.apply_u(data.sequences[0][0]).ravel(), [-1.0, 1.0])


def test_fit_standardizer_rejects_constant_channel():
    data = SequenceData(sequences=[(np.full((3, 1), 5.0), np.random.randn(3, 1))])
    with pytest.raises(DataError):
        fit_standardizer(data)


def test_standardizer_round_trip():
    data = make_data(T=200, seed=1)
    std = fit_standardizer(data)
    y = data.sequences[0][1]
    np.testing.assert_allclose(std.invert_y(std.apply_y(y)), y, atol=1e-12)


def test_train_stats_leave_validation_residual():
    data = make_data(T=1000, seed=2)
    train, valid = split_estimation(data, 0.2)
    std = fit_standardizer(train)
    valid_std = std.apply_y(valid.sequences[0][1])
    assert abs(valid_std.mean()) > 0.0  # train statistics, not refit


# ---------------------------------------------------------------------------
# split_estimation
# ---------------------------------------------------------------------------


def test_split_tail_sizes():
    data = make_data(T=1000)
    train, valid = split_estimation(data, 0.2)
    assert train.sequences[0][0].shape[0] == 800
    assert valid.sequences[0][0].shape[0] == 200


def test_split_is_contiguous_tail():
    data = make_data(T=100, seed=3)
    train, valid = split_estimation(data, 0.25)
    np.testing.assert_array_equal(
        np.concatenate([train.sequences[0][0], valid.sequences[0][0]]),
        data.sequences[0][0],
    )


def test_split_rejects_large_fraction():
    with pytest.raises(ParameterError):
        split_estimation(make_data(), 0.6)


def test_split_deterministic():
    data = make_data(T=500, seed=4)
    a = split_estimation(data, 0.2)
    b = split_estimation(data, 0.2)
    np.testing.assert_array_equal(a[0].sequences[0][0], b[0].sequences[0][0])


# ---------------------------------------------------------------------------
# window sampling
# ---------------------------------------------------------------------------


def test_single_chunk_windows_are_first():
    data = make_data(T=64)
    plan = WindowPlan(window_len=16, chunk_len=16, batch_size=4, seed=0)
    batches = list(sample_windows(data, plan, epoch=0))
    assert len(batches) == 1
    assert batches[0].offset == 0


def test_four_chunks_per_window_flags():
    data = make_data(T=128)
    plan = WindowPlan(window_len=32, chunk_len=8, batch_size=3, seed=0)
    batches = list(sample_windows(data, plan, epoch=0))
    assert [b.offset for b in batches] == [0, 8, 16, 24]


def test_epoch_enters_the_seed():
    data = make_data(T=256)
    plan = WindowPlan(window_len=32, chunk_len=32, batch_size=8, seed=5)
    a = plan.offsets_for(data, epoch=0)
    b = plan.offsets_for(data, epoch=1)
    assert a != b
    assert a == plan.offsets_for(data, epoch=0)


def test_chunks_tile_each_window_exactly_once():
    data = make_data(T=128, seed=6)
    plan = WindowPlan(window_len=32, chunk_len=8, batch_size=2, seed=1)
    batches = list(sample_windows(data, plan, epoch=0))
    offsets = plan.offsets_for(data, epoch=0)
    rebuilt = np.concatenate([b.u for b in batches], axis=1)
    for row, (seq, start) in enumerate(offsets):
        np.testing.assert_array_equal(
            rebuilt[row], data.sequences[seq][0][start : start + 32]
        )


def test_windows_never_cross_sequence_boundaries():
    data = make_data(T=40, n_seq=3, seed=7)
    plan = WindowPlan(window_len=32, chunk_len=16, batch_size=64, seed=2)
    for seq, start in plan.offsets_for(data, epoch=0):
        assert 0 <= start <= 40 - 32


def test_window_longer_than_sequence_rejected():
    data = make_data(T=30)
    plan = WindowPlan(window_len=32, chunk_len=16, batch_size=2, seed=0)
    with pytest.raises(PlanError):
        list(sample_windows(data, plan, epoch=0))


def test_window_not_multiple_of_chunk_rejected():
    with pytest.raises(PlanError):
        WindowPlan(window_len=30, chunk_len=16, batch_size=2, seed=0)


# ---------------------------------------------------------------------------
# synthetic system
# ---------------------------------------------------------------------------


def test_synth_deterministic_per_seed():
    a = synth_wiener_hammerstein(500, seed=9, noise_std=0.0)
    b = synth_wiener_hammerstein(500, seed=9, noise_std=0.0)
    np.testing.assert_array_equal(a.sequences[0][0], b.sequences[0][0])
    np.testing.assert_array_equal(a.sequences[0][1], b.sequences[0][1])


@pytest.mark.parametrize("noise_std", [0.0, 0.1])
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 1000])
def test_synth_equals_numpy_scalar_recursions_bitwise(n, seed, noise_std):
    # the Python-float loops round as the numpy-scalar ones do; n 1-3 cover
    # the filter's start-up branches
    data = synth_wiener_hammerstein(n, seed=seed, noise_std=noise_std)
    (u, y), = data.sequences
    u_ref, y_ref = synth_wiener_hammerstein_scalars(n, seed, noise_std)
    assert u.shape == y.shape == (n, 1) and u.dtype == y.dtype == np.float64
    assert np.array_equal(u[:, 0], u_ref) and np.array_equal(y[:, 0], y_ref)


def test_synth_zero_input_gives_zero_output():
    y = wiener_hammerstein_response(np.zeros(100))
    np.testing.assert_array_equal(y, np.zeros(100))


def test_synth_noise_adds_variance():
    # measurement noise of std sigma adds ~sigma^2 to the output variance
    sigma = 0.05
    deltas = []
    for seed in range(10):
        clean = synth_wiener_hammerstein(4000, seed=seed, noise_std=0.0)
        noisy = synth_wiener_hammerstein(4000, seed=seed, noise_std=sigma)
        deltas.append(noisy.sequences[0][1].var() - clean.sequences[0][1].var())
    assert np.mean(deltas) == pytest.approx(sigma ** 2, rel=0.2)


def test_synth_rejects_empty():
    with pytest.raises(ParameterError):
        synth_wiener_hammerstein(0)
