import re

import numpy as np
import pytest

from distclust.errors import InvalidConfig, RowError, SchemaError
from distclust.gaussian import SampleGroup
from distclust.ingest import add_noise, log_return_transform, read_stock_csv

GOOD_CSV = """date,symbol,open,close,low,high
2024-01-02,BBB,20.0,21.0,19.5,21.5
2024-01-01,AAA,10.0,10.5,9.8,10.9
2024-01-02,AAA,10.5,10.2,10.0,10.8
2024-01-01,BBB,19.0,20.0,18.5,20.5
2024-01-03,AAA,10.2,10.4,10.1,10.6
"""


def write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestReadStockCsv:
    def test_groups_sorted_and_date_ordered(self, tmp_path):
        result = read_stock_csv(write(tmp_path, GOOD_CSV))
        assert [g.group_id for g in result.groups] == ["AAA", "BBB"]
        aaa = result.groups[0]
        assert aaa.samples.shape == (3, 4)
        # rows in date order, coordinates in (open, close, low, high) order
        np.testing.assert_allclose(aaa.samples[0], [10.0, 10.5, 9.8, 10.9])
        np.testing.assert_allclose(aaa.samples[2], [10.2, 10.4, 10.1, 10.6])

    def test_header_case_and_order_insensitive(self, tmp_path):
        text = (
            "Symbol,HIGH,low,Close,Open,Date\n"
            "AAA,11.0,9.0,10.5,10.0,2024-01-01\n"
            "AAA,12.0,9.5,11.0,10.5,2024-01-02\n"
        )
        result = read_stock_csv(write(tmp_path, text))
        np.testing.assert_allclose(
            result.groups[0].samples, [[10.0, 10.5, 9.0, 11.0], [10.5, 11.0, 9.5, 12.0]]
        )

    def test_extra_columns_ignored(self, tmp_path):
        text = (
            "date,symbol,open,close,low,high,volume\n"
            "2024-01-01,AAA,1.0,1.1,0.9,1.2,55000\n"
            "2024-01-02,AAA,1.1,1.2,1.0,1.3,60000\n"
        )
        result = read_stock_csv(write(tmp_path, text))
        assert result.groups[0].dim == 4

    def test_duplicate_date_last_wins(self, tmp_path):
        text = (
            "date,symbol,open,close,low,high\n"
            "2024-01-01,AAA,1.0,1.0,1.0,1.0\n"
            "2024-01-02,AAA,2.0,2.0,2.0,2.0\n"
            "2024-01-01,AAA,9.0,9.0,9.0,9.0\n"
        )
        result = read_stock_csv(write(tmp_path, text))
        np.testing.assert_allclose(result.groups[0].samples[0], [9.0, 9.0, 9.0, 9.0])

    def test_non_utf8_text_is_schema_error(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_bytes(GOOD_CSV.encode().replace(b"BBB", b"B\xffB", 1))
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: not UTF-8 text"):
            read_stock_csv(path)

    def test_lenient_skips_with_line_numbers(self, tmp_path):
        text = (
            "date,symbol,open,close,low,high\n"
            "2024-01-01,AAA,1.0,1.0,1.0,1.0\n"
            "not-a-date,AAA,1.0,1.0,1.0,1.0\n"
            "2024-01-02,AAA,oops,1.0,1.0,1.0\n"
            "2024-01-03,AAA,2.0,2.0,2.0,2.0\n"
        )
        result = read_stock_csv(write(tmp_path, text))
        assert result.groups[0].count == 2
        assert [e.line for e in result.skipped] == [3, 4]

    def test_strict_raises_on_first_bad_row(self, tmp_path):
        text = (
            "date,symbol,open,close,low,high\n"
            "2024-01-01,AAA,1.0,1.0,1.0,1.0\n"
            "2024-01-02,AAA,oops,1.0,1.0,1.0\n"
        )
        with pytest.raises(RowError) as err:
            read_stock_csv(write(tmp_path, text), strict=True)
        assert err.value.line == 3
        assert "line 3" in str(err.value)

    def test_short_row_is_a_row_error(self, tmp_path):
        text = (
            "date,symbol,open,close,low,high\n"
            "2024-01-01,AAA\n"
            "2024-01-01,BBB,1.0,1.0,1.0,1.0\n"
            "2024-01-02,BBB,2.0,2.0,2.0,2.0\n"
        )
        result = read_stock_csv(write(tmp_path, text))
        assert len(result.skipped) == 1 and result.skipped[0].line == 2

    def test_min_days_drop(self, tmp_path):
        result = read_stock_csv(write(tmp_path, GOOD_CSV), min_days=3)
        assert [g.group_id for g in result.groups] == ["AAA"]
        assert result.dropped_symbols == ("BBB",)

    def test_min_days_floor_is_two(self, tmp_path):
        text = (
            "date,symbol,open,close,low,high\n"
            "2024-01-01,AAA,1.0,1.0,1.0,1.0\n"
            "2024-01-01,BBB,1.0,1.0,1.0,1.0\n"
            "2024-01-02,BBB,2.0,2.0,2.0,2.0\n"
        )
        # even with min_days=0 a single-day symbol cannot form a covariance
        result = read_stock_csv(write(tmp_path, text), min_days=0)
        assert [g.group_id for g in result.groups] == ["BBB"]
        assert result.dropped_symbols == ("AAA",)

    def test_missing_column_schema_error(self, tmp_path):
        text = "date,symbol,open,close,low\n2024-01-01,AAA,1,1,1\n"
        with pytest.raises(SchemaError):
            read_stock_csv(write(tmp_path, text))

    def test_empty_file_schema_error(self, tmp_path):
        with pytest.raises(SchemaError):
            read_stock_csv(write(tmp_path, ""))

    def test_negative_min_days_rejected(self, tmp_path):
        with pytest.raises(InvalidConfig):
            read_stock_csv(write(tmp_path, GOOD_CSV), min_days=-1)


class TestLogReturnTransform:
    def test_hand_values(self):
        g = SampleGroup(
            "AAA",
            np.array(
                [
                    [1.0, 2.0, 1.0, 2.0],
                    [2.0, 4.0, 2.0, 4.0],
                    [4.0, 8.0, 4.0, 8.0],
                ]
            ),
        )
        out = log_return_transform([g])
        assert out[0].samples.shape == (2, 4)
        np.testing.assert_allclose(out[0].samples, np.log(2.0) * np.ones((2, 4)))

    def test_rejects_non_positive_prices(self):
        g = SampleGroup("AAA", np.array([[1.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 1.0],
                                         [1.0, 1.0, 1.0, 1.0]]))
        with pytest.raises(InvalidConfig):
            log_return_transform([g])

    def test_rejects_too_short_groups(self):
        from distclust.errors import InsufficientSamples

        g = SampleGroup("AAA", np.ones((2, 4)))
        with pytest.raises(InsufficientSamples):
            log_return_transform([g])


class TestAddNoise:
    def test_zero_sigma_is_exact_copy_and_skips_rng(self, rng):
        groups = [SampleGroup("A", rng.uniform(1, 2, size=(4, 3)))]
        state_before = rng.bit_generator.state
        out = add_noise(groups, 0.0, rng)
        assert np.array_equal(out[0].samples, groups[0].samples)
        assert rng.bit_generator.state == state_before

    def test_positive_sigma_perturbs(self, rng):
        groups = [SampleGroup("A", np.ones((50, 2)))]
        out = add_noise(groups, 2.0, rng)
        diff = out[0].samples - groups[0].samples
        assert np.abs(diff).max() > 0.0
        assert diff.std() == pytest.approx(2.0, rel=0.3)

    def test_deterministic_for_seed(self):
        groups = [SampleGroup("A", np.ones((5, 2)))]
        a = add_noise(groups, 1.0, np.random.default_rng(8))
        b = add_noise(groups, 1.0, np.random.default_rng(8))
        assert np.array_equal(a[0].samples, b[0].samples)

    def test_negative_sigma_rejected(self, rng):
        for sigma in (-1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidConfig, match="^sigma must be finite and non-negative"):
                add_noise([SampleGroup("A", np.ones((2, 2)))], sigma, rng)
