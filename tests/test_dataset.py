import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rss_atlas import dataset as dsm
from rss_atlas.errors import ConfigError, DataError


def write(tmp_path, text, name="survey.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadCsv:
    def test_empty_cell_filled_with_floor(self, tmp_path):
        p = write(
            tmp_path,
            "x,y,apA,apB\n0,0,-50,-60\n1,0,,-61\n2,0,-52,-62\n",
        )
        ds = dsm.load_csv(p)
        assert ds.n == 3 and ds.m == 2
        assert ds.Z[1][0] == -100.0

    def test_custom_floor(self, tmp_path):
        p = write(tmp_path, "x,y,apA\n0,0,\n1,1,-70\n")
        ds = dsm.load_csv(p, floor_dbm=-95.0)
        assert ds.Z[0][0] == -95.0

    def test_duplicate_ap_ids_rejected(self, tmp_path):
        p = write(tmp_path, "x,y,apA,apA\n0,0,-50,-60\n")
        with pytest.raises(DataError, match="duplicate"):
            dsm.load_csv(p)

    def test_bad_header(self, tmp_path):
        p = write(tmp_path, "lon,lat,apA\n0,0,-50\n")
        with pytest.raises(DataError, match="line 1"):
            dsm.load_csv(p)

    def test_non_numeric_cell_names_line(self, tmp_path):
        p = write(tmp_path, "x,y,apA\n0,0,-50\n1,0,oops\n")
        with pytest.raises(DataError, match="line 3"):
            dsm.load_csv(p)

    def test_inconsistent_column_count_names_line(self, tmp_path):
        p = write(tmp_path, "x,y,apA\n0,0,-50\n1,0\n")
        with pytest.raises(DataError, match="line 3"):
            dsm.load_csv(p)

    def test_positive_rss_rejected(self, tmp_path):
        p = write(tmp_path, "x,y,apA\n0,0,3.5\n")
        with pytest.raises(DataError, match="line 2"):
            dsm.load_csv(p)

    def test_rss_below_thermal_noise_rejected(self, tmp_path):
        p = write(tmp_path, "x,y,apA\n0,0,-50\n1,0,-1e300\n")
        with pytest.raises(DataError, match="line 3: RSS below -174 dBm is not physical"):
            dsm.load_csv(p)

    def test_rss_bounds_inclusive(self, tmp_path):
        p = write(tmp_path, "x,y,apA,apB\n0,0,-174,0\n")
        assert dsm.load_csv(p).Z.tolist() == [[-174.0, 0.0]]

    # float() accepts each of these; none is an ASCII decimal number.
    NOT_DECIMAL = ["-5_0", "\u0661", "-\u0665\u0660", "\uff15", "nan", "inf", "-Infinity"]

    @pytest.mark.parametrize("cell", NOT_DECIMAL + ["1e", "--5", "-50dBm", "0x10"])
    def test_non_decimal_rss_cell_rejected(self, tmp_path, cell):
        p = tmp_path / "survey.csv"
        p.write_text(f"x,y,apA\n0,0,{cell}\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2: non-numeric RSS cell 'apA'"):
            dsm.load_csv(p)

    @pytest.mark.parametrize("cell", NOT_DECIMAL)
    def test_non_decimal_coordinate_rejected(self, tmp_path, cell):
        p = tmp_path / "survey.csv"
        p.write_text(f"x,y,apA\n0,{cell},-50\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2: non-numeric coordinate"):
            dsm.load_csv(p)

    def test_decimal_forms_and_padding_accepted(self, tmp_path):
        p = write(tmp_path, "x,y,apA,apB\n +1.5 ,.5e1, -60. ,-7E+1\n")
        ds = dsm.load_csv(p)
        assert ds.X.tolist() == [[1.5, 5.0]]
        assert ds.Z.tolist() == [[-60.0, -70.0]]

    def test_repr_extremes_round_trip(self, tmp_path):
        X = np.array([[1e16, -1.5e-07], [5e-324, -0.0], [123456789.123, -1.7976931348623157e308]])
        Z = np.array([[-1e-05, -174.0], [-0.0, -73.12345678901234], [-5e-324, -100.0]])
        ds = dsm.SurveyDataset(X=X, Z=Z, ap_ids=("a", "b"))
        p = tmp_path / "extremes.csv"
        dsm.save_csv(ds, p)
        back = dsm.load_csv(p)
        assert np.array_equal(back.X, X) and np.array_equal(back.Z, Z)
        assert np.array_equal(np.signbit(back.X), np.signbit(X))

    def test_roundtrip_bit_identical(self, tmp_path, small_survey):
        p = tmp_path / "rt.csv"
        dsm.save_csv(small_survey, p)
        back = dsm.load_csv(p)
        assert np.array_equal(back.X, small_survey.X)
        assert np.array_equal(back.Z, small_survey.Z)
        assert back.ap_ids == small_survey.ap_ids

    def test_fill_value_bounded_by_observations(self, tmp_path, small_survey):
        # The floor is a lower bound by construction, so a filled cell can
        # never exceed a real reading of the same AP.
        p = tmp_path / "gap.csv"
        dsm.save_csv(small_survey, p)
        ds = dsm.load_csv(p)
        assert np.all(ds.Z.min(axis=0) >= -100.0)


# Cells a survey CSV may hold, well formed or not.
_CELLS = st.sampled_from(
    ["x", "y", "ap1", "ap2", "", " ", "-50", "-1e300", "0", "1", "nan", "inf", "-inf",
     "1e999", "abc", "-7.5", "-60", "-80.25", "1_0", "\u0661", "x,y",
     "-5_0", "\uff15", " -60 ", "+.5", "-7e+1", "-174", "-175", "1e"]
)


@st.composite
def _csv_text(draw):
    """Mostly a valid header and rows of the right width, with any cells."""
    m = draw(st.integers(1, 3))
    row = st.lists(_CELLS, min_size=m + 2, max_size=m + 2) | st.lists(_CELLS, max_size=6)
    header = ["x", "y"] + [f"ap{j}" for j in range(m)]
    if draw(st.integers(0, 3)) == 0:
        header = draw(row)
    rows = draw(st.lists(row, max_size=5))
    return "\n".join(",".join(cells) for cells in [header] + rows)


class TestLoadCsvFuzz:
    """Any file gives a dataset or a DataError, never another exception."""

    @given(st.one_of(st.text(st.characters(blacklist_categories=("Cs",))), _csv_text()))
    @settings(max_examples=300, deadline=None)
    def test_text(self, tmp_path_factory, text):
        p = tmp_path_factory.getbasetemp() / "fuzz_survey.csv"
        p.write_text(text, encoding="utf-8")
        try:
            dsm.load_csv(p)
        except DataError:
            pass

    @given(st.binary(max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_bytes(self, tmp_path_factory, data):
        p = tmp_path_factory.getbasetemp() / "fuzz_survey.csv"
        p.write_bytes(data)
        try:
            dsm.load_csv(p)
        except DataError:
            pass


class TestSynthesize:
    def test_rss_at_reference_distance_is_tx_power(self):
        area = (50.0, 50.0)
        cfg = dsm.SynthEnvConfig(
            area=area, n_aps=4, shadowing_std_dbm=0.0,
            waypoints=((25.0, 25.0),), sample_spacing_m=1.0,
        )
        aps = dsm.ap_positions(cfg, seed=5)
        # One sample exactly reference_distance away from AP 0.
        target = (float(aps[0, 0] + cfg.reference_distance_m), float(aps[0, 1]))
        cfg = dsm.SynthEnvConfig(
            area=area, n_aps=4, shadowing_std_dbm=0.0,
            waypoints=(target,), sample_spacing_m=1.0,
        )
        ds = dsm.synthesize(cfg, seed=5)
        assert ds.n == 1
        assert ds.Z[0, 0] == pytest.approx(cfg.tx_power_dbm, abs=1e-12)

    def test_same_seed_identical(self, small_synth_config):
        a = dsm.synthesize(small_synth_config, seed=3)
        b = dsm.synthesize(small_synth_config, seed=3)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Z, b.Z)

    def test_different_seed_differs(self, small_synth_config):
        a = dsm.synthesize(small_synth_config, seed=3)
        b = dsm.synthesize(small_synth_config, seed=4)
        assert not np.array_equal(a.Z, b.Z)

    def test_path_loss_doubling_distance(self):
        # Closed-form oracle: with no shadowing, doubling the distance
        # drops RSS by exactly 10 * gamma * log10(2).
        cfg0 = dsm.SynthEnvConfig(
            area=(100.0, 100.0), n_aps=3, shadowing_std_dbm=0.0,
            path_loss_exponent=2.2, waypoints=((50.0, 50.0),),
        )
        aps = dsm.ap_positions(cfg0, seed=9)
        ax, ay = float(aps[0, 0]), float(aps[0, 1])
        d = 5.0
        cfg = dsm.SynthEnvConfig(
            area=(100.0, 100.0), n_aps=3, shadowing_std_dbm=0.0,
            path_loss_exponent=2.2,
            waypoints=((ax + d, ay), (ax + 2 * d, ay)),
            sample_spacing_m=d,
        )
        ds = dsm.synthesize(cfg, seed=9)
        expected_drop = -10.0 * 2.2 * math.log10(2.0)
        assert ds.Z[1, 0] - ds.Z[0, 0] == pytest.approx(expected_drop, abs=1e-9)

    def test_monotone_in_distance_without_shadowing(self, small_synth_config):
        from dataclasses import replace

        cfg = replace(small_synth_config, shadowing_std_dbm=0.0)
        ds = dsm.synthesize(cfg, seed=2)
        aps = dsm.ap_positions(cfg, seed=2)
        for j in range(cfg.n_aps):
            d = np.hypot(ds.X[:, 0] - aps[j, 0], ds.X[:, 1] - aps[j, 1])
            order = np.argsort(d)
            rss_sorted = ds.Z[order, j]
            assert np.all(np.diff(rss_sorted) <= 1e-12)

    def test_floor_clamp(self):
        cfg = dsm.SynthEnvConfig(
            area=(400.0, 400.0), n_aps=6, shadowing_std_dbm=0.0,
            tx_power_dbm=-40.0, path_loss_exponent=4.0, floor_dbm=-90.0,
            waypoints=dsm.serpentine_waypoints((400.0, 400.0), 20.0, 100.0),
            sample_spacing_m=10.0,
        )
        ds = dsm.synthesize(cfg, seed=0)
        assert ds.Z.min() == -90.0

    def test_invalid_exponent_rejected(self):
        with pytest.raises(ConfigError):
            dsm.SynthEnvConfig(path_loss_exponent=7.0).validate()

    def test_floor_above_tx_rejected(self):
        with pytest.raises(ConfigError):
            dsm.SynthEnvConfig(tx_power_dbm=-120.0).validate()

    def test_tx_power_above_0_dbm_rejected(self):
        # load_csv refuses readings above 0 dBm, so train must not write them.
        with pytest.raises(ConfigError, match="tx_power_dbm"):
            dsm.SynthEnvConfig(tx_power_dbm=10.0).validate()
        dsm.SynthEnvConfig(tx_power_dbm=0.0).validate()

    def test_shadowing_clamped_at_0_dbm(self, small_synth_config, tmp_path):
        from dataclasses import replace

        cfg = replace(small_synth_config, tx_power_dbm=0.0, shadowing_std_dbm=8.0)
        ds = dsm.synthesize(cfg, seed=3)
        assert ds.Z.max() == 0.0
        assert np.count_nonzero(ds.Z == 0.0) > 1
        path = tmp_path / "survey.csv"
        dsm.save_csv(ds, path)
        assert np.array_equal(dsm.load_csv(path).Z, ds.Z)

    def test_floor_below_thermal_noise_rejected(self):
        # load_csv refuses such readings, so train must not write them.
        with pytest.raises(ConfigError, match="floor_dbm"):
            dsm.SynthEnvConfig(floor_dbm=-175.0).validate()
        dsm.SynthEnvConfig(floor_dbm=dsm.MIN_RSS_DBM).validate()


class TestNormalize:
    def test_two_point_column(self):
        ds = dsm.SurveyDataset(
            X=np.array([[0.0, 0.0], [1.0, 0.0]]),
            Z=np.array([[-50.0], [-70.0]]),
            ap_ids=("a",),
        )
        norm, stats = dsm.normalize(ds)
        np.testing.assert_allclose(norm.Z[:, 0], [1.0, -1.0])
        assert stats.per_ap_mean[0] == -60.0
        assert stats.per_ap_std[0] == 10.0

    def test_roundtrip_identity(self, small_survey):
        norm, stats = dsm.normalize(small_survey)
        back = dsm.denormalize(norm, stats)
        np.testing.assert_allclose(back.Z, small_survey.Z, atol=1e-9)

    def test_constant_column_flagged(self):
        ds = dsm.SurveyDataset(
            X=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
            Z=np.array([[-80.0, -50.0], [-80.0, -60.0], [-80.0, -70.0]]),
            ap_ids=("a", "b"),
        )
        norm, stats = dsm.normalize(ds)
        np.testing.assert_allclose(norm.Z[:, 0], 0.0)
        assert stats.per_ap_std[0] == 1.0
        assert stats.constant_aps == (0,)

    def test_double_normalize_rejected(self, small_survey):
        norm, _ = dsm.normalize(small_survey)
        with pytest.raises(DataError):
            dsm.normalize(norm)

    def test_columns_standardized(self, small_survey):
        norm, _ = dsm.normalize(small_survey)
        assert np.abs(norm.Z.mean(axis=0)).max() < 1e-9
        assert np.abs(norm.Z.std(axis=0) - 1.0).max() < 1e-9

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 12)), int(rng.integers(1, 6))
        ds = dsm.SurveyDataset(
            X=rng.uniform(0, 10, size=(n, 2)),
            Z=rng.uniform(-90, -30, size=(n, m)),
            ap_ids=tuple(f"a{i}" for i in range(m)),
        )
        norm, stats = dsm.normalize(ds)
        back = dsm.denormalize(norm, stats)
        np.testing.assert_allclose(back.Z, ds.Z, atol=1e-9)


class TestSplit:
    def test_sizes(self, small_survey):
        ds10 = dsm.SurveyDataset(
            X=small_survey.X[:10], Z=small_survey.Z[:10], ap_ids=small_survey.ap_ids
        )
        train, test = dsm.split(ds10, 0.3, seed=0)
        assert train.n == 7 and test.n == 3

    def test_deterministic(self, small_survey):
        a_train, a_test = dsm.split(small_survey, 0.25, seed=5)
        b_train, b_test = dsm.split(small_survey, 0.25, seed=5)
        assert np.array_equal(a_train.X, b_train.X)
        assert np.array_equal(a_test.Z, b_test.Z)

    def test_union_is_original(self, small_survey):
        train, test = dsm.split(small_survey, 0.4, seed=1)
        combined = np.vstack([train.X, test.X])
        key = lambda A: sorted(map(tuple, A.tolist()))
        assert key(combined) == key(small_survey.X)
        assert train.n + test.n == small_survey.n

    def test_block_mode_contiguous(self, small_survey):
        train, test = dsm.split(small_survey, 0.25, seed=0, mode="block")
        n_test = test.n
        assert np.array_equal(test.X, small_survey.X[-n_test:])
        assert np.array_equal(train.X, small_survey.X[:-n_test])

    def test_empty_partition_rejected(self, small_survey):
        ds3 = dsm.SurveyDataset(
            X=small_survey.X[:3], Z=small_survey.Z[:3], ap_ids=small_survey.ap_ids
        )
        with pytest.raises(DataError):
            dsm.split(ds3, 0.05, seed=0)


class TestSurveyDataset:
    def test_row_mismatch_rejected(self):
        with pytest.raises(DataError):
            dsm.SurveyDataset(
                X=np.zeros((3, 2)), Z=np.full((2, 1), -50.0), ap_ids=("a",)
            )

    def test_immutability(self, small_survey):
        with pytest.raises(ValueError):
            small_survey.Z[0, 0] = 0.0

    def test_trajectory_spacing(self, small_synth_config):
        pts = dsm.trajectory_points(small_synth_config.waypoints, 1.5)
        gaps = np.hypot(*(np.diff(pts, axis=0).T))
        # Interior samples along a straight segment sit exactly spacing apart.
        assert gaps.max() <= 1.5 + 1e-9
