"""Command-line behavior: exit codes, determinism, table output."""

import json

import pytest

from netauction.cli import main
from netauction.generate import embedded_branch_fixture
from netauction.instance_io import save_instance


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "branch.json"
    save_instance(path, embedded_branch_fixture())
    return path


def test_run_prints_table_and_totals(fixture_file, capsys):
    assert main(["run", "--mechanism", "drm", "--instance", str(fixture_file)]) == 0
    out = capsys.readouterr().out
    assert "seller revenue: 2" in out
    assert "social welfare: 9" in out  # winner 2 holds the item she values at 9
    assert "-4" in out


def test_run_csv(fixture_file, tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    assert main([
        "run", "--mechanism", "drm", "--instance", str(fixture_file),
        "--csv", str(csv_path),
    ]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "bidder,allocation,payment"
    assert len(lines) == 7


def test_run_unknown_mechanism_is_usage_error(fixture_file):
    assert main(["run", "--mechanism", "nope", "--instance", str(fixture_file)]) == 2


def test_run_invalid_file_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"m": 1, "seller_neighbors": [1], "bidders": ['
                   '{"id": 4, "neighbors": [4], "valuation": []}]}')
    assert main(["run", "--mechanism", "drm", "--instance", str(bad)]) == 3


@pytest.mark.parametrize("m", [-1, 17])
def test_run_out_of_range_item_count_is_validation_error(tmp_path, capsys, m):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "m": m, "seller_neighbors": [1],
        "bidders": [{"id": 1, "neighbors": [], "valuation": []}],
    }))
    assert main(["run", "--mechanism", "drm", "--instance", str(bad)]) == 3
    assert f"item count {m}" in capsys.readouterr().err


def _bidder(**fields):
    return {"id": 1, "neighbors": [], "valuation": [], **fields}


@pytest.mark.parametrize(
    "instance, field",
    [
        ({"m": 1, "seller_neighbors": [1],
          "bidders": [_bidder(neighbors=[[2]])]}, "bidder 1: 'neighbors'"),
        ({"m": 1, "seller_neighbors": [1],
          "bidders": [_bidder(neighbors=[True])]}, "bidder 1: 'neighbors'"),
        ({"m": 1, "seller_neighbors": [1],
          "bidders": [_bidder(neighbors=["a"])]}, "bidder 1: 'neighbors'"),
        ({"m": 1, "seller_neighbors": [[1]], "bidders": [_bidder()]},
         "'seller_neighbors'"),
        ({"m": 1, "seller_neighbors": ["x"], "bidders": [_bidder()]},
         "'seller_neighbors'"),
        ({"m": True, "seller_neighbors": [1], "bidders": [_bidder()]}, "'m'"),
        ({"m": 1, "seller_neighbors": [1],
          "bidders": [_bidder(valuation=[[[1], True]])]}, "bidder 1: 'valuation'"),
        ({"m": 1, "seller_neighbors": [1],
          "bidders": [_bidder(valuation=[[[True], 1]])]}, "bidder 1: 'valuation'"),
        ({"m": 1, "seller_neighbors": [1], "bidders": [_bidder(id=True)]},
         "bidder id"),
    ],
    ids=["list-neighbor", "bool-neighbor", "str-neighbor", "list-seller",
         "str-seller", "bool-m", "bool-value", "bool-item", "bool-id"],
)
def test_run_non_integer_field_is_validation_error(tmp_path, capsys, instance, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(instance))
    assert main(["run", "--mechanism", "drm", "--instance", str(bad)]) == 3
    err = capsys.readouterr().err
    assert field in err and "is not an integer" in err
    assert "Traceback" not in err


def test_generate_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["generate", "--n", "6", "--m", "2", "--vmax", "3",
            "--count", "5", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    files1 = sorted(out1.glob("*.json"))
    files2 = sorted(out2.glob("*.json"))
    assert [f.name for f in files1] == [f.name for f in files2]
    for f1, f2 in zip(files1, files2):
        assert f1.read_bytes() == f2.read_bytes()
    # files are loadable, canonical JSON
    json.loads(files1[0].read_text())


def test_verify_epi4nw_finds_witness(capsys):
    assert main(["verify", "--property", "epi4nw"]) == 0
    assert "witness" in capsys.readouterr().out


def test_verify_rdm_tiny_passes(capsys):
    assert main(["verify", "--property", "rdm", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "RDM: ok" in out


def test_verify_ic_reports_the_known_gap(capsys):
    # the dealer mechanism's forced-resale gap makes the checker exit nonzero
    assert main(["verify", "--property", "ic", "--scale", "tiny"]) == 4
    out = capsys.readouterr().out
    assert "IC: VIOLATED" in out
    assert "first witness" in out


def test_compare_tabulates_both_mechanisms(fixture_file, tmp_path, capsys):
    csv_path = tmp_path / "cmp.csv"
    assert main([
        "compare", "--instances", str(fixture_file.parent), "--csv", str(csv_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "drm_revenue" in out and "baseline_revenue" in out
    row = csv_path.read_text().strip().splitlines()[1].split(",")
    assert row[0] == "branch.json"
    assert int(row[1]) >= int(row[3])  # dealer run beats the direct sale here


def test_compare_empty_dir_is_usage_error(tmp_path):
    assert main(["compare", "--instances", str(tmp_path)]) == 2


def test_usage_error_exit_code():
    assert main(["run"]) == 2
    assert main([]) == 2
