import json
from fractions import Fraction as F

import pytest

from waring.cli import main
from waring.exactla import ExactMatrix
from waring.forms import random_power_sum, to_polynomial_json


@pytest.fixture
def quintic_file(tmp_path):
    phi, _ = random_power_sum(3, 5, 7, seed=4)
    path = tmp_path / "quintic.json"
    path.write_text(json.dumps(to_polynomial_json(phi)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_certify_exit_codes(capsys, quintic_file):
    code, out = run(capsys, "certify", "--input", quintic_file, "--r", "6")
    assert code == 10
    assert json.loads(out)["verdict"] == "EXCLUDED"

    code, out = run(capsys, "certify", "--input", "x0^5", "--nvars", "3", "--r", "1")
    assert code == 0
    assert json.loads(out)["verdict"] == "CONSISTENT"


def test_certify_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vars": 3, "degree":')
    code = main(["certify", "--input", str(bad), "--r", "2"])
    assert code == 2


def test_decompose_quintic_cli(capsys, quintic_file):
    code, out = run(capsys, "decompose", "--input", quintic_file, "--mode", "auto")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["summands"]) == 7
    assert obj["residual"] < 1e-8
    assert obj["mode"] == "quintic"


def test_decompose_binary_cli(capsys):
    code, out = run(
        capsys, "decompose", "--input", "x0^3 + x1^3", "--nvars", "2",
        "--mode", "binary", "--r", "2",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["exact"] is True
    assert obj["mode"] == "binary"


def test_decompose_wrong_mode_errors(capsys):
    code = main(["decompose", "--input", "x0^4 + x1^4", "--nvars", "3",
                 "--mode", "quintic"])
    assert code == 2


def test_matrix_koszul(capsys):
    code, out = run(capsys, "matrix", "--kind", "koszul", "--n", "2", "--a", "1")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert len(rows) == 3 and len(rows[0]) == 3
    flat = sum(rows, [])
    assert flat.count("0") == 3
    assert {c.lstrip("-") for c in flat} == {"0", "x0", "x1", "x2"}


def test_matrix_yf_csv_round_trip(capsys):
    code, out = run(
        capsys, "matrix", "--kind", "yf", "--input", "x0^3", "--nvars", "3"
    )
    assert code == 0
    rows = [[F(cell) for cell in line.split(",")] for line in out.strip().splitlines()]
    m = ExactMatrix(rows)
    assert m.shape == (9, 9)
    assert m.rank() == 2


def test_matrix_cat_rejects_bad_split(capsys, quintic_file):
    code = main(["matrix", "--kind", "cat", "--a", "0", "--input", quintic_file])
    assert code == 2


def test_matrix_twisted(capsys):
    phi, _ = random_power_sum(3, 6, 2, seed=1)
    import json as _json
    from waring.forms import to_polynomial_json as tpj

    code, out = run(
        capsys, "matrix", "--kind", "twisted", "--input",
        _json.dumps(tpj(phi)), "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["shape"] == [36, 36]
    assert obj["rank"] <= 6
    # the build draws nothing at random, so there is no seed to pass
    assert main(["matrix", "--kind", "twisted", "--input", _json.dumps(tpj(phi)),
                 "--seed", "1"]) == 2


def test_degree_series_and_lookup(capsys):
    code, out = run(capsys, "degree", "--family", "sym-series", "--p", "2")
    assert code == 0
    assert json.loads(out)["degree"] == "112"

    code, out = run(capsys, "degree", "--n", "2", "--d", "5", "--r", "6")
    assert code == 0
    assert json.loads(out)["degree"] == "140"

    code, out = run(capsys, "degree", "--n", "4", "--d", "2", "--r", "2")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"codim", "degree"}


def test_gen_deterministic(capsys):
    code1, out1 = run(capsys, "gen", "--n", "2", "--d", "5", "--r", "7", "--seed", "9")
    code2, out2 = run(capsys, "gen", "--n", "2", "--d", "5", "--r", "7", "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert len(obj["summands"]) == 7


def test_rank_profile_cli(capsys, quintic_file):
    code, out = run(capsys, "rank-profile", "--input", quintic_file)
    assert code == 0
    obj = json.loads(out)
    assert obj["profile"] == [3, 6]
    assert obj["yf_border_rank_lb"] == 7


def test_out_file(tmp_path, capsys, quintic_file):
    target = tmp_path / "report.json"
    code = main(["rank-profile", "--input", quintic_file, "--out", str(target)])
    assert code == 0
    assert json.loads(target.read_text())["profile"] == [3, 6]
