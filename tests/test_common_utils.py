"""Unit tests for common utilities: units, tables, deterministic RNG."""

import pytest
from hypothesis import given, strategies as st

from repro.common.rng import derive_seed, make_rng, stable_hash
from repro.common.tables import render_table
from repro.common.units import (
    GB,
    KB,
    MB,
    TB,
    format_bytes,
    format_duration,
)


class TestUnits:
    def test_byte_constants(self):
        assert KB == 1024
        assert MB == 1024 * KB
        assert GB == 1024 * MB
        assert TB == 1024 * GB

    @pytest.mark.parametrize(
        "value, expected",
        [
            (512, "512 B"),
            (2 * KB, "2.0 KB"),
            (250 * GB, "250.0 GB"),
            (int(1.5 * TB), "1.5 TB"),
        ],
    )
    def test_format_bytes(self, value, expected):
        assert format_bytes(value) == expected

    @pytest.mark.parametrize(
        "value, expected",
        [
            (0.0000005, "0.5 us"),
            (0.0421, "42.1 ms"),
            (42.0, "42.0 s"),
            (192.0, "3.2 min"),
            (7200.0, "2.0 h"),
        ],
    )
    def test_format_duration(self, value, expected):
        assert format_duration(value) == expected

    def test_negative_duration(self):
        assert format_duration(-5.0) == "-5.0 s"


class TestTables:
    def test_render_basic_table(self):
        text = render_table(["a", "bb"], [[1, "x"], [22, "y"]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_numeric_columns_right_aligned(self):
        text = render_table(["n"], [[5], [500]])
        lines = text.splitlines()
        assert lines[2].endswith("  5")
        assert lines[3].endswith("500")

    def test_title_rendering(self):
        text = render_table(["a"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"
        assert text.splitlines()[1] == "========"

    def test_float_formatting(self):
        text = render_table(["v"], [[0.1234], [1.5], [123.456]])
        assert "0.123" in text
        assert "1.5" in text
        assert "123" in text


class TestRng:
    def test_derive_seed_is_stable(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_derive_seed_separates_labels(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_derive_seed_separates_roots(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_make_rng_streams_are_independent(self):
        first = make_rng(42, "x")
        second = make_rng(42, "y")
        assert [first.random() for _ in range(5)] != [
            second.random() for _ in range(5)
        ]

    def test_stable_hash_types(self):
        for value in ["text", b"bytes", 12345, -7, ("a", 1)]:
            assert stable_hash(value) == stable_hash(value)
            assert 0 <= stable_hash(value) < 2**32

    @given(st.integers())
    def test_stable_hash_integers(self, value):
        assert stable_hash(value) == stable_hash(value)
