"""End-to-end smoke test of the reporting entry point at tiny scale."""

import os

import pytest

from repro.eval.reporting import generate_all, headline_averages


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    return generate_all(out_dir=str(out), scale=0.1), out


def test_all_artifacts_present(artifacts):
    texts, out = artifacts
    expected = {
        "table1.txt", "table2.txt", "table3.txt", "table4.txt",
        "litmus_table.txt", "listing7.cat",
        "figure1.txt", "figure2.txt", "figure3.txt", "figure4.txt",
    }
    assert expected <= set(texts)
    for name in expected:
        assert os.path.exists(os.path.join(str(out), name))


def test_csvs_written(artifacts):
    _, out = artifacts
    csv_dir = os.path.join(str(out), "csv")
    for name in (
        "figure3a_time.csv", "figure3b_energy.csv",
        "figure4a_time.csv", "figure4b_energy.csv",
    ):
        assert os.path.exists(os.path.join(csv_dir, name))


def test_headline_section_present(artifacts):
    texts, _ = artifacts
    assert "Average execution-time / energy reduction vs GD0" in texts["figure3.txt"]
    assert "DeNovo vs GPU under DRFrlx" in texts["figure4.txt"]


def test_figures_have_all_configs(artifacts):
    texts, _ = artifacts
    for fig in ("figure3.txt", "figure4.txt"):
        for cfg in ("GD0", "GD1", "GDR", "DD0", "DD1", "DDR"):
            assert cfg in texts[fig]


def test_litmus_table_covers_library(artifacts):
    texts, _ = artifacts
    from repro.litmus.library import all_tests

    for t in all_tests():
        assert t.name in texts["litmus_table.txt"]
