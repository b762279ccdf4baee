"""End-to-end CLI checks: outputs, schemas, exit codes, determinism."""

import hashlib
import json
from fractions import Fraction as F

import pytest

from redgraph.cli import main

CIRCLE5 = {"vertices": ["v0"], "edges": [{"from": "v0", "to": "v0", "length": "5/1"}]}
TARGET5 = {
    "discrete": [{"vertex": "v0", "weight": "-1/1"}],
    "density": [{"edge": 0, "breakpoints": [], "values": ["1/5"]}],
}


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


def test_bound_preset_neutral(tmp_path):
    out = tmp_path / "bound.json"
    assert main(["bound", "compute", "--ell", "11/1", "--preset", "neutral", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["bound"] == "11/24"
    assert payload["bound_num"] == 11
    assert payload["bound_den"] == 24
    assert payload["units"] == "log Nv"


def test_bound_intervals_and_coefficient_override(tmp_path):
    out = tmp_path / "bound.json"
    args = ["bound", "compute", "--ell", "5/1", "--intervals", "[(0/1,1/1),(3/1,4/1)]"]
    assert main(args + ["--out", str(out)]) == 0
    assert read_json(out)["bound"] == "1/300"  # 2 * 1 / (24 * 25)
    # forcing c = 1/L zeroes that interval's contribution
    assert main(args + ["--c", "1:1/5", "--out", str(out)]) == 0
    assert read_json(out)["bound"] == "1/600"
    assert main(args + ["--c", "1:1/5", "--c", "2:1/5", "--out", str(out)]) == 0
    assert read_json(out)["bound"] == "0/1"


def test_bound_requires_preset_or_intervals(tmp_path, capsys):
    assert main(["bound", "compute", "--ell", "2/1"]) == 1
    assert "preset" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["x:1/4", "1:abc", "1:1/0", "1/4"])
def test_bound_malformed_coefficient_exits_2(override, capsys):
    # non-integer index, non-rational value (twice), missing colon
    args = ["bound", "compute", "--ell", "5/1", "--intervals", "[(0/1,1/1)]", "--c", override]
    with pytest.raises(SystemExit) as info:
        main(args)
    assert info.value.code == 2
    assert "I:VAL" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra", [["--max-n", "0"], ["--max-n", "-3"], ["--max-n", "1", "--exclude-identity"]]
)
def test_equi_run_max_n_below_first_order_exits_2(tmp_path, capsys, extra):
    out = tmp_path / "report.csv"
    assert main(["equi", "run", "--ell", "1/1", "--out", str(out), *extra]) == 2
    assert "first order" in capsys.readouterr().err
    assert not out.exists()


def test_equi_run_matches_grid_distances(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["equi", "run", "--ell", "1/1", "--max-n", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,count,ks_num,ks_den,ks_float,err_nt"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[2], r[3]) for r in rows] == [
        ("1", "1", "1"),
        ("2", "1", "2"),
        ("3", "1", "3"),
    ]
    assert rows[0][1] == "1" and rows[1][1] == "4" and rows[2][1] == "9"


def test_equi_run_deterministic_bytes(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    base = ["equi", "run", "--ell", "5/1", "--max-n", "12", "--seed", "7"]
    assert main(base + ["--out", str(first)]) == 0
    assert main(base + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_equi_run_random_mode_seeded(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    base = ["equi", "run", "--ell", "2/1", "--max-n", "6", "--mode", "random"]
    assert main(base + ["--seed", "7", "--out", str(a)]) == 0
    assert main(base + ["--seed", "7", "--out", str(b)]) == 0
    assert main(base + ["--seed", "8", "--out", str(c)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ["--ell", "5/1", "--max-n", "60", "--w1"],
            "e1d5bca64004019e77b9933138b032c43837e118c93d6b23818b44f937dcba79",
        ),
        (
            ["--ell", "7/3", "--max-n", "40", "--w1", "--mode", "random", "--seed", "7"],
            "e8824749db81790441193ca56a19cb6b62d7808c309056aaa57ebe3540a7ef68",
        ),
        (
            ["--ell", "7/3", "--max-n", "60", "--w1", "--exclude-identity"],
            "b7cd035c1646dc5ef09262b467158de767a2b7bcef8c0c656b0595aa1ddf5ea1",
        ),
    ],
)
def test_equi_run_golden_bytes(tmp_path, args, digest):
    # hashes of reports from the earlier per-point CDF implementation: every
    # distance is a unique exact rational, so the bytes must not change
    out = tmp_path / "report.csv"
    assert main(["equi", "run", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_equi_run_exclude_identity_and_w1(tmp_path):
    out = tmp_path / "report.csv"
    args = [
        "equi", "run", "--ell", "1/1", "--max-n", "3",
        "--exclude-identity", "--w1", "--out", str(out),
    ]
    assert main(args) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,count,ks_num,ks_den,ks_float,w1_float,err_nt"
    rows = [line.split(",") for line in lines[1:]]
    # identity excluded: starts at n=2 with count n^2 - 1
    assert rows[0][0] == "2" and rows[0][1] == "3"
    assert rows[1][0] == "3" and rows[1][1] == "8"


def test_graph_solve_uniform_normalization(tmp_path):
    graph_path = write_json(tmp_path / "g.json", CIRCLE5)
    target_path = write_json(tmp_path / "t.json", TARGET5)
    out = tmp_path / "solution.json"
    assert main(["graph", "solve", "--graph", graph_path, "--target", target_path, "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["edges"] == [
        {
            "edge": 0,
            "breakpoints": [],
            "pieces": [{"c2": "1/10", "c1": "-1/2", "c0": "5/12"}],
        }
    ]


def test_graph_solve_point_normalization(tmp_path):
    graph_path = write_json(tmp_path / "g.json", CIRCLE5)
    target_path = write_json(tmp_path / "t.json", TARGET5)
    out = tmp_path / "solution.json"
    args = [
        "graph", "solve", "--graph", graph_path, "--target", target_path,
        "--normalize", "point:v0", "--out", str(out),
    ]
    assert main(args) == 0
    pieces = read_json(out)["edges"][0]["pieces"][0]
    assert pieces == {"c2": "1/10", "c1": "-1/2", "c0": "0/1"}


def test_graph_solve_nonzero_mass_is_domain_error(tmp_path, capsys):
    graph_path = write_json(tmp_path / "g.json", CIRCLE5)
    bad_target = write_json(
        tmp_path / "t.json", {"discrete": [{"vertex": "v0", "weight": "1/1"}], "density": []}
    )
    assert main(["graph", "solve", "--graph", graph_path, "--target", bad_target]) == 1
    assert "mass" in capsys.readouterr().err


def test_shilov_measure_output(tmp_path):
    model = {
        "components": [
            {"label": "X1", "mult": 1, "deg": "3/1"},
            {"label": "X2", "mult": 2, "deg": "1/1"},
        ],
        "exponents": [1],
        "total_degree": "5/1",
    }
    model_path = write_json(tmp_path / "m.json", model)
    out = tmp_path / "measure.json"
    assert main(["shilov", "measure", "--model", model_path, "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["weights"] == {"X1": "3/1", "X2": "2/1"}
    assert payload["mass"] == "5/1"
    assert payload["normalized"] == {"X1": "3/5", "X2": "2/5"}


def test_shilov_inconsistent_model_is_domain_error(tmp_path):
    model = {
        "components": [{"label": "X1", "mult": 1, "deg": "3/1"}],
        "exponents": [1],
        "total_degree": "4/1",
    }
    model_path = write_json(tmp_path / "m.json", model)
    assert main(["shilov", "measure", "--model", model_path]) == 1


def test_nt_evaluation(tmp_path):
    out = tmp_path / "nt.json"
    assert main(["nt", "--ell", "5/1", "--eval", "13/2", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["potential"]["edges"][0]["pieces"] == [
        {"c2": "1/10", "c1": "-1/2", "c0": "5/12"}
    ]
    assert payload["curvature"]["density"] == [
        {"edge": 0, "breakpoints": [], "values": ["1/5"]}
    ]
    # 13/2 reduces to 3/2; value is (3/2)^2/10 - 3/4 + 5/12 = -13/120
    assert payload["potential_at"]["t"] == "3/2"
    assert payload["potential_at"]["value"] == "-13/120"
    assert payload["potential_at"]["float"] == float(F(-13, 120))


def test_phi_energy_cli(tmp_path):
    graph_path = write_json(tmp_path / "g.json", CIRCLE5)
    out = tmp_path / "phi.json"
    args = ["phi-energy", "--graph", graph_path, "--p", "0:3/2", "--q", "v:v0", "--out", str(out)]
    assert main(args) == 0
    payload = read_json(out)
    assert payload["energy"] == "21/20"  # (3/2)(5 - 3/2)/5
    assert payload["float"] == 1.05


def test_canheight_cli(tmp_path):
    out = tmp_path / "h.json"
    args = ["canheight", "--poly", "1,0,0", "--p", "3", "--x", "1/3", "--max-iter", "8", "--out", str(out)]
    assert main(args) == 0
    payload = read_json(out)
    assert payload == {
        "value": "1/1",
        "float": 1.0,
        "converged": True,
        "iterations": 0,
        "units": "log 3",
    }


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["shilov", "measure", "--model", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_malformed_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["shilov", "measure", "--model", str(bad)]) == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    capsys.readouterr()


def test_bad_rational_argument_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["nt", "--ell", "abc"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ["nt", "--ell", "1/0"],
        ["nt", "--ell", "5/1", "--eval", "2/0"],
        ["equi", "run", "--ell", "1/0", "--max-n", "3", "--out", "{tmp}/r.csv"],
        ["canheight", "--poly", "1,0,0", "--p", "3", "--x", "1/0"],
        ["canheight", "--poly", "1,0,1/0", "--p", "3", "--x", "1/3"],
        ["phi-energy", "--graph", "{graph}", "--p", "0:1/0", "--q", "v:v0"],
        ["phi-energy", "--graph", "{graph}", "--p", "x:1/2", "--q", "v:v0"],
        ["bound", "compute", "--ell", "5/1", "--intervals", "[(0,1/0)]"],
        ["bound", "compute", "--ell", "5/1", "--intervals", "[]"],
    ],
)
def test_malformed_rational_exits_2(tmp_path, capsys, args):
    graph = write_json(tmp_path / "g.json", CIRCLE5)
    args = [a.format(tmp=tmp_path, graph=graph) for a in args]
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.strip()


def test_domain_error_exits_1(tmp_path, capsys):
    assert main(["nt", "--ell", "0/1"]) == 1
    assert "positive" in capsys.readouterr().err
    out = tmp_path / "r.csv"
    assert main(["equi", "run", "--ell", "0", "--max-n", "3", "--out", str(out)]) == 1
    assert "positive" in capsys.readouterr().err


def test_stdout_emission(capsys):
    assert main(["bound", "compute", "--ell", "1/1", "--preset", "neutral"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bound"] == "1/24"
