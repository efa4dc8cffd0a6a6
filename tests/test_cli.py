"""Command-line behavior: exit codes, determinism, table output."""

import argparse
import importlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netauction import generate
from netauction.cli import build_parser, main
from netauction.drm import MECHANISMS
from netauction.generate import embedded_branch_fixture
from netauction.instance_io import save_instance
from netauction.model import MechanismConfig, bundle_str, social_welfare

from reference import two_round_showcase
from test_io import MALFORMED, MALFORMED_IDS


README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_run_reserve_bidder_flag_is_usage_error(fixture_file):
    # drm-reserve is the one way to run with the reserve floor
    args = ["run", "--mechanism", "drm", "--instance", str(fixture_file)]
    assert main([*args, "--reserve-bidder"]) == 2


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


@pytest.mark.parametrize("text, message", MALFORMED, ids=MALFORMED_IDS)
def test_run_malformed_file_is_validation_error(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["run", "--mechanism", "drm", "--instance", str(bad)]) == 3
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


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


@pytest.mark.parametrize("valuation", [5, None, True], ids=["int", "null", "bool"])
def test_run_non_list_valuation_is_validation_error(tmp_path, capsys, valuation):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "m": 1, "seller_neighbors": [1], "bidders": [_bidder(valuation=valuation)],
    }))
    assert main(["run", "--mechanism", "drm", "--instance", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "bidder 1: 'valuation' must be a list" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize(
    "content, reason",
    [(b'\xff\xfe{"m":1}', "not UTF-8"), (b"[" * 200000, "nesting too deep")],
    ids=["not-utf8", "too-deep"],
)
def test_unreadable_file_is_validation_error(tmp_path, capsys, command, content, reason):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    if command == "run":
        args = ["run", "--mechanism", "drm", "--instance", str(bad)]
    else:
        args = ["compare", "--instances", str(tmp_path)]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert reason in err and "Traceback" not in err


def _run_table(path, *flags):
    """The CSV rows `run` writes for one mechanism and flag set."""
    csv_path = path.parent / "out.csv"
    assert main(["run", "--instance", str(path), "--csv", str(csv_path), *flags]) == 0
    return csv_path.read_text().splitlines()


def _expected_table(outcome):
    """The CSV rows `run` should write for one outcome."""
    return ["bidder,allocation,payment"] + [
        f"{i},{bundle_str(outcome.allocation[i])},{outcome.payment[i]}"
        for i in sorted(outcome.allocation)
    ]


def test_run_reserve_mechanism_writes_its_own_outcome(tmp_path, capsys):
    inst = two_round_showcase()
    path = tmp_path / "showcase.json"
    save_instance(path, inst)
    tables = {}
    for name in ("drm-reserve", "drm"):
        outcome = MECHANISMS[name](inst, MechanismConfig())
        tables[name] = _run_table(path, "--mechanism", name)
        assert tables[name] == _expected_table(outcome)
        assert capsys.readouterr().out.splitlines()[-2:] == [
            f"seller revenue: {outcome.seller_revenue}",
            f"social welfare: {social_welfare(inst, outcome)}",
        ]
    assert tables["drm-reserve"] != tables["drm"]  # the reserve floor matters here


# Each mechanism with the header `run --seed 3` prints for it.
RUN_HEADERS = [
    ("drm", "mechanism: drm"),
    ("drm-random-bdp", "mechanism: drm-random-bdp  seed: 3"),
    ("drm-reserve", "mechanism: drm-reserve"),
    ("idm", "mechanism: idm"),
    ("baseline-direct", "mechanism: baseline-direct"),
]


@pytest.mark.parametrize(
    "mechanism, header", RUN_HEADERS, ids=[case[0] for case in RUN_HEADERS]
)
def test_run_header_shows_the_settings_the_mechanism_reads(
    fixture_file, capsys, mechanism, header
):
    args = ["run", "--mechanism", mechanism, "--instance", str(fixture_file),
            "--seed", "3"]
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines()[0] == header


def test_run_seed_reaches_the_random_division(tmp_path, capsys):
    inst = two_round_showcase()
    path = tmp_path / "showcase.json"
    save_instance(path, inst)
    tables = []
    for seed in (0, 4):
        outcome = MECHANISMS["drm-random-bdp"](inst, MechanismConfig(rng_seed=seed))
        table = _run_table(path, "--mechanism", "drm-random-bdp", "--seed", str(seed))
        assert table == _expected_table(outcome)
        assert f"seller revenue: {outcome.seller_revenue}" in capsys.readouterr().out
        tables.append(table)
    assert tables[0] != tables[1]


def test_readme_run_synopsis_lists_the_run_options():
    (synopsis,) = [line for line in README.read_text(encoding="utf-8").splitlines()
                   if line.startswith("netauction run ")]
    (subcommands,) = [action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    options = {opt for action in subcommands.choices["run"]._actions
               for opt in action.option_strings} - {"-h", "--help"}
    assert set(re.findall(r"--[a-z-]+", synopsis)) == options


def test_readme_names_exactly_the_registered_mechanisms():
    text = README.read_text(encoding="utf-8")
    listed = text[text.index("Registered mechanisms"):].split("\n\n", 2)[1]
    names = re.findall(r"^- `([^`]+)`", listed, flags=re.MULTILINE)
    assert sorted(names) == sorted(MECHANISMS)


def test_readme_imports_resolve():
    imports = re.findall(r"from (netauction[\w.]*) import (\w+(?:, \w+)*)",
                         README.read_text(encoding="utf-8"))
    assert imports
    for module, names in imports:
        loaded = importlib.import_module(module)
        for name in names.split(", "):
            assert hasattr(loaded, name), f"README imports {module}.{name}"


def _many_items_file(tmp_path, m):
    path = tmp_path / f"m{m}.json"
    path.write_text(json.dumps({
        "m": m, "seller_neighbors": [1], "bidders": [_bidder(valuation=[[[1], 2]])],
    }))
    return path


@pytest.mark.parametrize("m", [13, 16])
def test_drm_beyond_the_greedy_cap_is_validation_error(tmp_path, capsys, m):
    path = _many_items_file(tmp_path, m)
    assert main(["run", "--mechanism", "drm", "--instance", str(path)]) == 3
    err = capsys.readouterr().err
    assert f"{m} items remain" in err and "capped at 12" in err


def test_idm_runs_beyond_the_greedy_cap(tmp_path):
    path = _many_items_file(tmp_path, 13)
    assert main(["run", "--mechanism", "idm", "--instance", str(path)]) == 0


# Arbitrary JSON, for any field of a fuzzed instance file.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _well_formed_files(draw):
    """Instance files on bidders 1..n.  ``m`` is mostly 0..3 with n at
    most 4; sometimes it is past greedy division's cap of 12, with n at most
    1 to bound the 2^m-entry tables; sometimes it is out of range."""
    m = draw(st.integers(0, 9).flatmap(lambda k: (
        st.integers(0, 3) if k < 8
        else st.integers(13, 16) if k < 9
        else st.sampled_from([-1, 17])
    )))
    n = draw(st.integers(0, 4 if m <= 3 else 1))
    ids = st.integers(1, n + 1)  # n + 1 is nobody's id
    bundles = st.frozensets(st.integers(1, min(max(m, 1), 3)), min_size=1)
    valuation = st.dictionaries(
        bundles, st.integers(0, 9), max_size=3 if m else 0
    ).map(lambda table: [[sorted(b), v] for b, v in table.items()])
    bidders = [
        {
            "id": i,
            "neighbors": draw(st.lists(ids.filter(lambda j, i=i: j != i),
                                       max_size=3, unique=True)),
            "valuation": draw(valuation),
        }
        for i in range(1, n + 1)
    ]
    obj = {"m": m, "seller_neighbors": draw(st.lists(ids, max_size=3)),
           "bidders": bidders}
    if draw(st.integers(0, 3)) == 0:
        obj["truth"] = [dict(b) for b in bidders]
    return obj


def _json_paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from _json_paths(inner, path + (key,))
    elif isinstance(value, list):
        for key, inner in enumerate(value):
            yield from _json_paths(inner, path + (key,))


@st.composite
def instance_files(draw):
    """A well-formed file with up to two of its fields, at any depth,
    replaced by arbitrary JSON."""
    obj = draw(_well_formed_files())
    for _ in range(draw(st.integers(0, 2))):
        *parents, key = draw(st.sampled_from(list(_json_paths(obj))[1:]))
        target = obj
        for step in parents:
            target = target[step]
        target[key] = draw(JSON)
    return obj


def test_run_fuzzed_files_exit_ok_or_validation(tmp_path):
    path = tmp_path / "fuzz.json"

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(instance_files())
    def run(instance):
        path.write_text(json.dumps(instance))
        for mechanism in sorted(MECHANISMS):
            args = ["run", "--mechanism", mechanism, "--instance", str(path)]
            assert main(args) in (0, 3)

    run()


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


@pytest.mark.parametrize("flag, value, message", [
    ("--count", "-1", "negative instance count"),
    ("--vmax", "-1", "negative value bound"),
])
def test_generate_negative_spec_is_usage_error(tmp_path, capsys, flag, value, message):
    out = tmp_path / "out"
    args = ["generate", "--n", "3", "--m", "1", flag, value, "--out", str(out)]
    assert main(args) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_generate_edge_probability_out_of_range_is_usage_error(tmp_path, capsys):
    args = ["generate", "--n", "3", "--m", "1", "--edge-p", "7",
            "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert "edge probability 7.0 outside [0, 1]" in capsys.readouterr().err


def test_verify_epi4nw_finds_witness(capsys):
    assert main(["verify", "--property", "epi4nw"]) == 0
    assert "witness" in capsys.readouterr().out


def test_verify_epi4nw_without_a_witness_exits_4(monkeypatch, capsys):
    # Nobody on this line holds nothing and is paid.
    monkeypatch.setattr(generate, "embedded_branch_fixture",
                        lambda: generate.scalar_market("line", (1, 2)))
    assert main(["verify", "--property", "epi4nw"]) == 4
    assert capsys.readouterr().out == "epi4nw: NO WITNESS in the searched family\n"


@pytest.mark.parametrize("scale, families", [
    ("tiny", [("digraph", 1), ("digraph", 2), ("digraph", 3)]),
    ("small", [("digraph", 1), ("digraph", 2), ("digraph", 3), ("digraph", 4),
               ("undirected", 5)]),
], ids=["tiny", "small"])
def test_verify_cdc_scale_picks_the_network_families(monkeypatch, capsys, scale,
                                                     families):
    # The real small sweep takes many seconds; each stub yields one network.
    asked = []

    def stub(kind):
        def networks(n):
            asked.append((kind, n))
            return [(frozenset({1}), {1: frozenset()})]
        return networks

    monkeypatch.setattr(generate, "all_digraph_networks", stub("digraph"))
    monkeypatch.setattr(generate, "all_undirected_networks", stub("undirected"))
    assert main(["verify", "--property", "cdc", "--scale", scale]) == 0
    assert asked == families
    assert capsys.readouterr().out.startswith(
        f"CDC: ok [exhaustive] instances={len(families)} "
    )


@pytest.mark.parametrize("prop, summary", [
    ("ir", "IR: ok [exhaustive] instances=86 cases=576 violations=0"),
    ("wbb", "WBB: ok [exhaustive] instances=286 cases=286 violations=0"),
    ("cdc", "CDC: ok [exhaustive] instances=530 cases=5076 violations=0"),
    ("rdm", "RDM: ok [exhaustive] instances=86 cases=378 violations=0"),
    ("rc", "RC: ok [exhaustive] instances=100 cases=1396 violations=0"),
], ids=["ir", "wbb", "cdc", "rdm", "rc"])
def test_verify_tiny_passes(prop, summary, capsys):
    assert main(["verify", "--property", prop, "--scale", "tiny"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == summary


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
