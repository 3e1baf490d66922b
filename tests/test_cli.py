"""End-to-end tests of the command line interface."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from fractalsturm import CompositeMeasure, MonotonePrimitive, SelfSimilarParams, identity_params
from fractalsturm.cli import main

CANTOR_PARAMS = {
    "a": [1 / 3, 1 / 3, 1 / 3],
    "dprime": [0.5, 0.0, 0.5],
    "betaprime": [0.0, 0.5, 0.5],
}


@pytest.fixture
def problems(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return {
        "cantor": write("cantor.json", {"p": CANTOR_PARAMS, "bc": {"U": "neumann"}}),
        "lebesgue": write("lebesgue.json", {"p": 1.0, "bc": {"U": "dirichlet"}}),
        "pair": write(
            "pair.json",
            {"r": MonotonePrimitive.cantor().to_json(), "p": CANTOR_PARAMS, "bc": {"U": "dirichlet"}},
        ),
        "geometric": write(
            "geometric.json",
            {
                "p": {"a": [0.5, 0.5], "dprime": [0.5, 0.0], "betaprime": [0.0, 1.0]},
                "bc": {"U": {"theta": [math.pi, 0.0]}},
            },
        ),
        "plateau": write(
            "plateau.json",
            {
                "r": MonotonePrimitive.cantor().to_json(),
                "p": {
                    "a": [1 / 3, 1 / 3, 1 / 3],
                    "dprime": [0.25, 0.5, 0.25],
                    "betaprime": [0.0, 0.25, 0.75],
                },
                "bc": {"U": "dirichlet"},
            },
        ),
        "indefinite": write(
            "indefinite.json",
            {
                "q": -7 * math.pi**2,
                "p": {"atoms": [[0.4, 1.0], [0.6, 1.0]]},
                "bc": {"U": "dirichlet"},
            },
        ),
        "composite_pair": write(
            "composite_pair.json",
            {
                "r": MonotonePrimitive.cantor().to_json(),
                "p": {
                    "atoms": [[0.2, 0.5], [0.7, 0.25]],
                    "density": {"breaks": [0.0, 0.5, 1.0], "values": [1.0, 2.0]},
                    "selfsim": dict(CANTOR_PARAMS, scale=2.0),
                },
                "bc": {"U": "neumann"},
            },
        ),
        "composite": write(
            "composite.json",
            {"p": {"atoms": [[0.5, 1.0]], "selfsim": CANTOR_PARAMS}, "bc": {"U": "neumann"}},
        ),
        "garbage": str((tmp_path / "garbage.json").write_text("not json {") or tmp_path / "garbage.json"),
    }


class TestEval:
    def test_csv_rows(self, problems, capsys):
        rc = main(["eval", problems["cantor"], "0.1111111111111111", "0.25"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,value,error_bound"
        x, v, b = (float(t) for t in lines[1].split(","))
        assert v == 0.25 and b == 0.0
        x, v, b = (float(t) for t in lines[2].split(","))
        assert v == pytest.approx(1 / 3, abs=1e-8)
        assert 0 < b < 1e-8

    def test_json_mode(self, problems, capsys):
        rc = main(["eval", problems["cantor"], "--json", "0.5"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["value"] == 0.5
        assert rows[0]["error_bound"] == 0.0

    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["eval", str(tmp_path / "nope.json"), "0.5"])
        assert rc == 2
        assert "fractalsturm:" in capsys.readouterr().err

    def test_out_of_domain_exit_2(self, problems, capsys):
        assert main(["eval", problems["cantor"], "1.5"]) == 2

    def test_garbage_json_exit_2(self, problems, capsys):
        assert main(["eval", problems["garbage"], "0.5"]) == 2

    @pytest.mark.parametrize(
        "body",
        [
            '{"p": "nope"}',
            '{"p": {"atoms": 5}}',
            '{"p": {"atoms": [[0.5, 1.0]]}, "r_mass": "heavy"}',
            '{"p": {"atoms": [[0.5, 1.0]]}, "bc": {"U": {"theta": [1.0]}}}',
            '{"p": {"density": "flat"}}',
        ],
    )
    def test_misshapen_entries_exit_2(self, tmp_path, capsys, body):
        path = tmp_path / "bad.json"
        path.write_text(body)
        assert main(["spectrum", str(path), "--n-eigs", "1"]) == 2
        assert capsys.readouterr().err.startswith("fractalsturm:")

    def test_non_selfsim_p_exit_3(self, problems, capsys):
        assert main(["eval", problems["indefinite"], "0.5"]) == 3


class TestTransform:
    def test_lebesgue_base_passes_through(self, problems, capsys):
        rc = main(["transform", problems["cantor"]])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["r"] == "lebesgue"
        assert obj["r_mass"] == 1.0
        assert obj["p"]["selfsim"]["dprime"] == [0.5, 0.0, 0.5]

    def test_cantor_pair_transforms_to_lebesgue_weight(self, problems, capsys):
        rc = main(["transform", problems["pair"]])
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["r"] == "lebesgue"
        ss = obj["p"]["selfsim"]
        got = SelfSimilarParams.from_json(ss)
        assert got == identity_params(2)

    def test_composite_p_keeps_atoms_and_density(self, problems, capsys):
        # the self-similar part has r's cell widths, yet the atoms
        # (0.75) and the density (1.5) must survive next to it (2.0)
        rc = main(["transform", problems["composite_pair"]])
        assert rc == 0
        p = CompositeMeasure.from_json(json.loads(capsys.readouterr().out)["p"])
        assert p.selfsim is not None
        assert p.total_mass() == pytest.approx(4.25, rel=1e-12)

    def test_plateau_mass_exit_3(self, problems, capsys):
        rc = main(["transform", problems["plateau"]])
        assert rc == 3
        assert "plateau" in capsys.readouterr().err


class TestSpectrum:
    def test_first_eigenvalues_csv(self, problems, capsys):
        rc = main(["spectrum", problems["lebesgue"], "--n-eigs", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "side,index,lambda"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1", "1", "1"]
        assert [r[1] for r in rows] == ["1", "2", "3"]
        for k, r in enumerate(rows, start=1):
            assert float(r[2]) == pytest.approx(math.pi**2 * k**2, rel=1e-3)

    def test_lambda_max_counts_rows(self, problems, capsys):
        rc = main(["spectrum", problems["lebesgue"], "--lambda-max", "100"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) - 1 == 3

    def test_lambda_max_rows_match_n_eigs(self, problems, capsys):
        assert main(["spectrum", problems["cantor"], "--lambda-max", "2000", "--json"]) == 0
        below = json.loads(capsys.readouterr().out)
        assert main(["spectrum", problems["cantor"], "--n-eigs", str(len(below)), "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert len(below) > 3
        assert [(r["side"], r["index"]) for r in below] == [(r["side"], r["index"]) for r in first]
        for b, f in zip(below, first):
            assert b["lambda"] == pytest.approx(f["lambda"], rel=2e-10)

    def test_requires_a_range_option(self, problems, capsys):
        assert main(["spectrum", problems["lebesgue"]]) == 2

    def test_signed_measure_reports_both_sides(self, tmp_path, capsys):
        prob = {
            "p": {"a": [0.5, 0.5], "dprime": [-0.5, 0.0], "betaprime": [0.0, 1.0]},
            "bc": {"U": {"theta": [math.pi, 0.0]}},
        }
        path = tmp_path / "signed.json"
        path.write_text(json.dumps(prob))
        rc = main(["spectrum", str(path), "--n-eigs", "2", "--depth", "12"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        sides = {line.split(",")[0] for line in lines[1:]}
        assert sides == {"1", "-1"}

    @pytest.mark.parametrize(
        "p, negative",
        [
            # total mass 1.4 >= 0 with one negative atom
            ({"atoms": [[0.2, 1.0], [0.45, -0.4], [0.7, 0.8]]}, -16.4807),
            # a nondecreasing self-similar part next to one negative atom
            ({"atoms": [[0.45, -0.4]], "selfsim": CANTOR_PARAMS}, -14.695),
        ],
    )
    def test_signed_p_lists_its_negative_side(self, tmp_path, capsys, p, negative):
        path = tmp_path / "signed.json"
        path.write_text(json.dumps({"p": p, "bc": {"U": "dirichlet"}}))
        assert main(["spectrum", str(path), "--depth", "5", "--lambda-max", "100"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        assert rows[0][0] == "1"
        assert [r[:2] for r in rows if r[0] == "-1"] == [["-1", "1"]]
        assert float(rows[-1][2]) == pytest.approx(negative, rel=1e-4)

    @pytest.mark.parametrize(
        "command, problem",
        [
            (["spectrum", "--n-eigs", "1"], "composite_pair"),
            (["asymptotics"], "composite_pair"),
            (["asymptotics"], "composite"),
        ],
    )
    def test_composite_p_rejected_on_selfsim_routes(self, problems, capsys, command, problem):
        assert main([command[0], problems[problem], *command[1:]]) == 3

    def test_indefinite_pencil_exit_4(self, problems, capsys):
        rc = main(["spectrum", problems["indefinite"], "--n-eigs", "1", "--depth", "10"])
        assert rc == 4

    def test_pair_route_with_iterate(self, problems, capsys):
        rc = main(["spectrum", problems["pair"], "--n-eigs", "2", "--k-iter", "0", "--depth", "7"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert float(lines[1].split(",")[2]) == pytest.approx(14.4352, rel=1e-3)

    def test_deterministic_output(self, problems, capsys):
        main(["spectrum", problems["cantor"], "--n-eigs", "4"])
        first = capsys.readouterr().out
        main(["spectrum", problems["cantor"], "--n-eigs", "4"])
        assert capsys.readouterr().out == first


class TestAsymptotics:
    def test_power_law_report_and_csv(self, problems, tmp_path, capsys):
        out = tmp_path / "counts.csv"
        rc = main([
            "asymptotics", problems["cantor"],
            "--grid", "1e2:1e5:8", "--depth", "9", "--out", str(out),
        ])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["dimension"] == pytest.approx(math.log(2) / math.log(6), abs=1e-12)
        assert rep["case_tag"] == "periodic-odd"
        assert rep["period"] == pytest.approx(math.log(6), abs=1e-12)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda,n_plus,n_minus,ratio_plus,ratio_minus,ln_lambda"
        assert len(lines) == 9

    def test_geometric_regime_report(self, problems, capsys):
        rc = main(["asymptotics", problems["geometric"], "--depth", "20", "--k-max", "3"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["product"] == 0.25
        assert rep["ratio_target"] == 4.0
        ratios = rep["ladders"][0]["ratios"]
        assert ratios[-1] == pytest.approx(4.0, abs=1e-3)


class TestCounterexample:
    def test_default_refutes_splitting(self, capsys):
        rc = main(["counterexample"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "counting does not split: N(510) = 8 > 7 = 3 + 1 + 3" in out
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,lhs,rhs_terms,rhs,holds"
        assert lines[1] == "510,8,3 1 3,7,False"

    def test_json_mode(self, capsys):
        rc = main(["counterexample", "--json", "--lambda", "510"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["lhs"] == 8
        assert rows[0]["rhs_terms"] == [3, 1, 3]
        assert rows[0]["holds"] is False

    def test_identity_base_inequality_holds(self, capsys):
        rc = main(["counterexample", "--k-iter", "0"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "inequality held at every lambda tested" in out


def test_module_entry_point(problems):
    proc = subprocess.run(
        [sys.executable, "-m", "fractalsturm.cli", "eval", problems["cantor"], "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "0.5,0.5,0"
