"""End-to-end command line runs, exercised in process through ``main``."""

import csv
import json

import pytest

from instgen import surplus_tsf_incumbent
from platoonplan import cli
from platoonplan.cli import main
from platoonplan.formulations import build_cpf, build_tsf
from platoonplan.instance import load_instance, save_instance
from platoonplan.mip import lp_text
from platoonplan.network import build_time_space


@pytest.fixture
def demo_file(demo, tmp_path):
    path = tmp_path / "demo.txt"
    save_instance(demo, path)
    return str(path)


# -- gen ----------------------------------------------------------------------


def test_gen_writes_instance(tmp_path):
    out = tmp_path / "inst.txt"
    rc = main(
        ["gen", "--grid", "3x3", "--vehicles", "4", "--seed", "7", "-o", str(out)]
    )
    assert rc == 0
    instance = load_instance(out)
    assert len(instance.vehicles) == 4
    assert instance.network.n_nodes == 9
    assert instance.q_limit == 5


def test_gen_is_deterministic(tmp_path):
    args = ["gen", "--grid", "4x4", "--vehicles", "6", "--seed", "3"]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_gen_stdout(capsys):
    rc = main(["gen", "--grid", "3x3", "--vehicles", "2", "--q", "inf"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("vehicle ") == 2
    assert "params 0.1 inf" in out


def test_gen_hub_mode_needs_hubs(capsys):
    rc = main(["gen", "--grid", "3x3", "--vehicles", "2", "--od-mode", "hub"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra",
    [
        ["--grid", "10"],
        ["--grid", "3x3", "--od-mode", "hub", "--hubs", "0,x"],
        ["--grid", "3x3", "--od-mode", "hub", "--hubs", "99"],
        ["--grid", "3x3", "--od-mode", "hub", "--hubs", "-1"],
        ["--grid", "3x3", "--od-mode", "hub", "--hubs", "0", "--tu", "0"],
        ["--grid", "3x3", "--od-mode", "hub", "--hubs", "0", "--hub-share", "2"],
        ["--grid", "3x3", "--horizon", "-1"],
    ],
    ids=["grid-without-cols", "hub-not-a-number", "hub-past-last-node", "hub-negative",
         "hub-zero-time-unit", "hub-share-above-one", "negative-horizon"],
)
def test_gen_bad_input_is_an_input_error(extra, capsys):
    # exit 1 would mean "violations found"; bad input exits 2
    rc = main(["gen", "--vehicles", "2", *extra])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_gen_nan_time_unit_names_the_time_unit(capsys):
    # the hub radius once took the NaN, and the error blamed the hub
    rc = main(["gen", "--grid", "4x4", "--vehicles", "3", "--od-mode", "hub", "--hubs", "0",
               "--tu", "nan"])
    assert rc == 2
    assert "time_unit must be finite and positive" in capsys.readouterr().err


# -- solve --------------------------------------------------------------------


def test_solve_cpf_demo(demo_file, tmp_path, capsys):
    summary_path = tmp_path / "summary.json"
    solution_path = tmp_path / "solution.json"
    rc = main(
        [
            "solve",
            demo_file,
            "--method",
            "cpf",
            "--out",
            str(summary_path),
            "--solution",
            str(solution_path),
        ]
    )
    assert rc == 0
    line = capsys.readouterr().out
    assert "method=cpf" in line and "status=optimal" in line
    assert "objective=4.9" in line

    summary = json.loads(summary_path.read_text())
    assert summary["objective"] == pytest.approx(4.9, abs=1e-9)
    assert summary["bound"] == pytest.approx(4.9, abs=1e-9)
    assert summary["spc"] == pytest.approx(4.99, abs=1e-9)
    assert summary["saving_ratio"] == pytest.approx(0.09 / 4.99, abs=1e-9)

    data = json.loads(solution_path.read_text())
    assert set(data) == {"vehicles", "platoons"}
    assert len(data["vehicles"]) == 3


def test_exact_methods_report_the_cost_of_their_plan(tmp_path, capsys, monkeypatch):
    # the model prices this incumbent at 30; its plan, one platoon where
    # the incumbent pays for two, costs 29, and check prints 29 too
    instance, _model, res = surplus_tsf_incumbent()
    path = tmp_path / "surplus.txt"
    save_instance(instance, path)
    monkeypatch.setattr(cli, "solve", lambda model, config: res)
    summary_path, solution_path = tmp_path / "summary.json", tmp_path / "plan.json"
    rc = main(["solve", str(path), "--method", "tsf", "--out", str(summary_path),
               "--solution", str(solution_path)])
    assert rc == 0
    assert "objective=29 " in capsys.readouterr().out
    summary = json.loads(summary_path.read_text())
    assert summary["objective"] == pytest.approx(29.0, abs=1e-9)
    assert summary["saving_ratio"] == pytest.approx(1 / 30, abs=1e-9)
    assert main(["check", str(path), str(solution_path)]) == 0
    assert capsys.readouterr().out.startswith("ok cost=29 ")

    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"instance": str(path), "method": "tsf"}]))
    out = tmp_path / "table.csv"
    assert main(["bench", str(manifest), "-o", str(out)]) == 0
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["sav"]) == pytest.approx(1 / 30, abs=1e-6)
    assert float(row["gap"]) == pytest.approx(0.0, abs=1e-9)


def test_solve_iheur_writes_round_log(demo_file, tmp_path, capsys):
    log_path = tmp_path / "rounds.jsonl"
    rc = main(
        ["solve", demo_file, "--method", "iheur", "--log", str(log_path)]
    )
    assert rc == 0
    assert "status=heuristic-repeat" in capsys.readouterr().out
    lines = [json.loads(l) for l in log_path.read_text().splitlines()]
    assert len(lines) == 5  # four rounds plus the summary line
    assert lines[0]["iteration"] == 1
    # round 2 solves the one scheduling part; rounds 3 and 4 reuse it
    assert [(l["parts"], l["parts_reused"]) for l in lines[:-1]] == [
        (0, 0),
        (1, 0),
        (1, 1),
        (1, 1),
    ]
    assert lines[-1]["summary"]["best_cost"] == pytest.approx(4.9, abs=1e-9)
    assert lines[-1]["summary"]["termination"] == "repeat"


@pytest.mark.parametrize("method", ["cpf", "tsf"])
def test_solve_dump_model(method, demo, demo_file, tmp_path, capsys):
    path = tmp_path / f"{method}.lp"
    rc = main(["solve", demo_file, "--method", method, "--dump-model", str(path)])
    assert rc == 0
    assert "objective=4.9" in capsys.readouterr().out
    if method == "cpf":
        model = build_cpf(demo)
    else:
        model = build_tsf(demo, build_time_space(demo.network, demo))
    text = path.read_text()
    assert text == lp_text(model)
    # a tuple key is printed as its parts joined by underscores
    lines = text.splitlines()
    if method == "cpf":
        assert lines[2].endswith(" - 0.1 y_0_2_1_2")
        assert " c10: 1 y_0_2_1_2 - 1 x_0_2_2 <= 0" in lines
        assert " 500 <= t_0_1 <= 500" in lines
        assert lines[-2].split() == [
            "x_0_1_0", "x_0_2_1", "x_0_1_2", "x_0_2_2", "x_1_4_2",
            "x_2_3_2", "x_3_5_2", "x_4_5_2", "y_0_2_1_2",
        ]
    else:
        assert lines[2].startswith(" obj: 1 x_0_0_1_100_0 + 0.9 x_0_500_2_600_1 + ")
        assert lines[2].endswith(" + 0.1 y_0_500_2_600")
        assert " 0 <= y_0_500_2_600 <= 1" in lines
        assert lines[-3:] == ["General", " y_0_500_2_600", "End"]


def test_solve_dump_model_rejects_iterative_methods(demo_file, tmp_path, capsys):
    path = tmp_path / "routing.lp"
    rc = main(["solve", demo_file, "--method", "iheur", "--dump-model", str(path)])
    assert rc == 2
    assert "--dump-model needs --method cpf or tsf" in capsys.readouterr().err
    assert not path.exists()


def test_solve_missing_instance(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "nope.txt"), "--method", "cpf"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_solve_rejects_nan_travel_time(tmp_path, capsys):
    path = tmp_path / "nan.txt"
    path.write_text("nodes 2\narc 0 1 1 nan\nvehicle 0 0 1 0 9\nparams 0.1 inf 1 20\n")
    rc = main(["solve", str(path), "--method", "cpf"])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "method, option, value",
    [
        ("pairwise", "--gamma", "nan"),
        ("pairwise", "--gamma", "inf"),
        ("pairwise", "--gamma", "-1"),
        ("iheur", "--time-limit", "nan"),
        ("pairwise", "--time-limit", "-1"),
        ("iheur", "--repeat-limit", "0"),
        ("cpf", "--time-limit", "nan"),
        ("tsf", "--time-limit", "-1"),
    ],
)
def test_solve_rejects_bad_run_settings(method, option, value, demo_file, capsys):
    """Each once ran unchecked: a traceback for a NaN or infinite gamma, no
    pairs for a negative one, no clock for a NaN time limit."""
    rc = main(["solve", demo_file, "--method", method, option, value])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {option[2:].replace('-', '_')} must ")


def test_solve_unknown_method_is_an_argparse_error(demo_file):
    with pytest.raises(SystemExit) as exc:
        main(["solve", demo_file, "--method", "magic"])
    assert exc.value.code == 2


# -- check --------------------------------------------------------------------


def test_check_round_trip(demo_file, tmp_path, capsys):
    solution_path = tmp_path / "solution.json"
    assert (
        main(
            [
                "solve",
                demo_file,
                "--method",
                "tsf",
                "--solution",
                str(solution_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    rc = main(["check", demo_file, str(solution_path)])
    assert rc == 0
    assert "ok cost=4.9 spc=4.99" in capsys.readouterr().out


def test_check_reports_violations(demo_file, tmp_path, capsys):
    solution_path = tmp_path / "solution.json"
    assert (
        main(
            [
                "solve",
                demo_file,
                "--method",
                "cpf",
                "--solution",
                str(solution_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    data = json.loads(solution_path.read_text())
    del data["vehicles"]["0"]
    solution_path.write_text(json.dumps(data))
    rc = main(["check", demo_file, str(solution_path)])
    assert rc == 1
    assert "violation missing-vehicle" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        '{"vehicles": {"0": [[0, 1]]}}',  # a leg without its entry time
        '{"vehicles": {"x": []}}',  # a vehicle id that is not a number
        '{"vehicles": {"0": [[0, 1, "t"]]}}',  # an entry time that is not a number
        '[1, 2]',  # not an object
        '{"platoons": [{"arc": [0, 1], "time": 500}]}',  # no groups
    ],
)
def test_check_malformed_solution_is_an_input_error(demo_file, tmp_path, capsys, text):
    # exit 1 would mean "violations found"; bad input exits 2
    path = tmp_path / "solution.json"
    path.write_text(text)
    assert main(["check", demo_file, str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_check_a_time_that_is_not_finite_is_an_input_error(demo_file, tmp_path, capsys, value):
    """JSON's NaN and Infinity parse to floats that no time may be."""
    solution_path = tmp_path / "solution.json"
    assert main(["solve", demo_file, "--method", "cpf", "--solution", str(solution_path)]) == 0
    capsys.readouterr()
    data = json.loads(solution_path.read_text())
    for legs in data["vehicles"].values():
        for leg in legs:
            leg[2] = float(value)
    for platoon in data["platoons"]:
        platoon["time"] = float(value)
    solution_path.write_text(json.dumps(data))
    assert main(["check", demo_file, str(solution_path)]) == 2
    assert "expected a finite time" in capsys.readouterr().err


# -- bench --------------------------------------------------------------------


def test_bench_sweeps_manifest(demo_file, tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [
                {"instance": demo_file, "method": "cpf", "label": "demo"},
                {"instance": demo_file, "method": "iheur"},
                {"instance": str(tmp_path / "gone.txt"), "method": "tsf"},
            ]
        )
    )
    out = tmp_path / "table.csv"
    rc = main(["bench", str(manifest), "-o", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "wrote 3 rows" in captured.out and "1 failed" in captured.out
    assert "row failed" in captured.err

    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == ["cpf", "iheur", "tsf"]
    assert list(rows[0]) == ["net", "V", "Q", "TU", "method", "gap", "cpu_s", "sav"]
    assert rows[0]["net"] == "demo"
    assert rows[0]["V"] == "3"
    assert rows[0]["Q"] == "inf"
    assert float(rows[0]["sav"]) == pytest.approx(0.09 / 4.99, abs=1e-6)
    assert float(rows[0]["gap"]) == pytest.approx(0.0, abs=1e-9)
    # the iterative method reports its gap to the round-one bound
    assert float(rows[1]["gap"]) == pytest.approx(0.01 / 4.89, abs=1e-6)
    # the broken row keeps its slot with empty quality columns
    assert rows[2]["gap"] == "" and rows[2]["sav"] == ""


def test_bench_parallel_jobs(demo_file, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps(
            [
                {"instance": demo_file, "method": "cpf"},
                {"instance": demo_file, "method": "tsf"},
            ]
        )
    )
    out = tmp_path / "table.csv"
    assert main(["bench", str(manifest), "-o", str(out), "--jobs", "2"]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert all(r["sav"] for r in rows)


class RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records the workers asked for
    and maps in this process, starting none."""

    def __init__(self, asked, max_workers):
        asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, rows):
        return map(fn, rows)


@pytest.mark.parametrize("jobs, rows, want", [(500, 2, [2]), (2, 2, [2]), (1, 2, []), (4, 1, [])])
def test_bench_asks_for_no_more_workers_than_rows(demo_file, tmp_path, monkeypatch, jobs, rows, want):
    asked = []
    monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda max_workers: RecordingPool(asked, max_workers))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"instance": demo_file, "method": "cpf"}] * rows))
    out = tmp_path / "table.csv"
    assert main(["bench", str(manifest), "-o", str(out), "--jobs", str(jobs)]) == 0
    assert asked == want
    with open(out, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == rows


@pytest.mark.parametrize("jobs", [0, -3])
def test_bench_rejects_fewer_than_one_job(demo_file, tmp_path, monkeypatch, capsys, jobs):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", lambda **kw: pytest.fail("pool"))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"instance": demo_file, "method": "cpf"}]))
    out = tmp_path / "table.csv"
    assert main(["bench", str(manifest), "-o", str(out), "--jobs", str(jobs)]) == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload",
    [
        {"instance": "x.txt", "method": "cpf"},  # not a list
        [{"method": "cpf"}],  # missing instance
        [{"instance": "x.txt", "method": "magic"}],  # unknown method
        [5],  # a row that is not an object
        [{"instance": "x.txt", "method": "cpf"}, 5],
    ],
)
def test_bench_rejects_bad_manifest(tmp_path, capsys, payload):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(payload))
    rc = main(["bench", str(manifest), "-o", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_bench_manifest_that_is_not_json_is_an_input_error(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text("[1,2")
    rc = main(["bench", str(manifest), "-o", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "not JSON" in capsys.readouterr().err


@pytest.mark.parametrize("exists", [True, False])
def test_bench_cpu_s_is_process_time(demo_file, tmp_path, monkeypatch, exists):
    # both the solved row and the broken row read the process CPU clock
    ticks = iter([10.0, 12.25])
    monkeypatch.setattr(cli.time, "process_time", lambda: next(ticks))
    path = demo_file if exists else str(tmp_path / "gone.txt")
    record = cli._bench_row({"instance": path, "method": "cpf"})
    assert ("error" in record) != exists
    assert record["cpu_s"] == "2.250"
