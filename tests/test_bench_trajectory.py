"""The trajectory writer summarises perfbench output without running it.

``tools/bench_trajectory.py`` parses each untraced perfbench run's
stdout (a ``noise:`` line, a ``detail:`` line and the result JSON) and
writes the median and quartiles of every metric per arm and workload.
These tests feed it canned lines in that format.
"""

import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def _load_tool():
    path = os.path.join(REPO_ROOT, "tools", "bench_trajectory.py")
    spec = importlib.util.spec_from_file_location("bench_trajectory", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = _load_tool()


def _stdout(sessions_per_s, rss_mb, steal=0.0012, contaminated=False):
    """One untraced perfbench run's stdout, as ``perfbench/run.py`` prints it."""
    noise = f"noise: host.steal_share={steal:.4f} client.cpu_share=0.4321"
    if contaminated:
        noise += " CONTAMINATED: host steal above 10%"
    result = {
        "correct": True,
        "attempted": 6035,
        "failed": 0,
        "metrics": {
            "sessions_per_s": {"value": sessions_per_s, "unit": "1/s"},
            "server_rss_mb": {"value": rss_mb, "unit": "MB"},
        },
    }
    return "\n".join([noise, 'detail: {"requests": 6000}', json.dumps(result)]) + "\n"


def _run(arm, workload, seed, text):
    return {**tool.parse_output(text), "arm": arm, "workload": workload, "seed": seed}


def test_parse_output_reads_metrics_and_noise():
    clean = tool.parse_output(_stdout(4800.0, 41.5))
    assert clean["metrics"] == {"sessions_per_s": 4800.0, "server_rss_mb": 41.5}
    assert clean["correct"] is True and clean["failed"] == 0
    assert clean["attempted"] == 6035
    assert clean["steal_share"] == pytest.approx(0.0012)
    assert clean["client_cpu_share"] == pytest.approx(0.4321)
    assert clean["contaminated"] is False
    flagged = tool.parse_output(_stdout(4800.0, 41.5, steal=0.1234, contaminated=True))
    assert flagged["contaminated"] is True
    assert flagged["steal_share"] == pytest.approx(0.1234)


def test_summary_medians_and_quartiles():
    runs = [
        _run("parent", "session-churn", 1, _stdout(1000.0, 41.0)),
        _run("parent", "session-churn", 2, _stdout(1100.0, 41.4)),
        _run("parent", "session-churn", 3, _stdout(1020.0, 41.2)),
        _run("change", "session-churn", 1, _stdout(4700.0, 41.1)),
        _run("change", "session-churn", 2, _stdout(4900.0, 41.3)),
        _run("change", "session-churn", 3, _stdout(4800.0, 41.2)),
        _run("change", "session-churn", 4, _stdout(5000.0, 41.0)),
        _run("change", "wire-small", 1, _stdout(5300.0, 41.6)),
    ]
    summary = tool.summarise(runs)
    assert set(summary) == {"parent", "change"}
    assert set(summary["parent"]) == {"session-churn"}
    assert set(summary["change"]) == {"session-churn", "wire-small"}

    parent = summary["parent"]["session-churn"]["sessions_per_s"]
    assert parent == {"median": 1020.0, "q1": 1010.0, "q3": 1060.0, "n": 3}
    change = summary["change"]["session-churn"]["sessions_per_s"]
    assert change["n"] == 4
    assert change["median"] == pytest.approx(4850.0)
    assert change["q1"] == pytest.approx(4775.0)
    assert change["q3"] == pytest.approx(4925.0)
    rss = summary["parent"]["session-churn"]["server_rss_mb"]
    assert rss["median"] == pytest.approx(41.2)
    assert summary["change"]["wire-small"]["sessions_per_s"] == {
        "median": 5300.0, "q1": 5300.0, "q3": 5300.0, "n": 1,
    }


def test_report_keys():
    runs = [
        _run("parent", "wire-bulk", 1, _stdout(1000.0, 41.0)),
        _run("change", "wire-bulk", 1, _stdout(4000.0, 41.0)),
    ]
    host = {"cpu_model": "x86-64", "nproc": 2, "python": "3.11.7", "numpy": "2.4.6",
            "calibration_iter_per_cpu_s": {"before": 3.5e7, "after": 3.6e7}}
    payload = tool.report(
        command="python3 tools/bench_trajectory.py --parent HEAD --out BENCH_0.json",
        perfbench={"command": ["python3", "perfbench/run.py"], "seconds": 10,
                   "trace": 0, "seeds": [1], "workloads": ["wire-bulk"]},
        host=host,
        arms={"parent": "git archive abc", "change": "working tree on abc"},
        runs=runs,
    )
    assert list(payload) == ["command", "perfbench", "host", "arms", "summary", "runs"]
    assert payload["host"] == host
    assert payload["runs"] == runs
    assert payload["summary"]["change"]["wire-bulk"]["sessions_per_s"]["median"] == 4000.0
    # The file is plain JSON.
    assert json.loads(json.dumps(payload)) == payload


def test_schedule_alternates_the_first_arm_per_seed():
    order = tool.schedule(["wire-small", "session-churn"], [1, 2, 3])
    assert order[:6] == [
        ("wire-small", 1, "parent"), ("wire-small", 1, "change"),
        ("wire-small", 2, "change"), ("wire-small", 2, "parent"),
        ("wire-small", 3, "parent"), ("wire-small", 3, "change"),
    ]
    assert len(order) == 12
    assert {(w, s) for w, s, _ in order} == {
        (w, s) for w in ("wire-small", "session-churn") for s in (1, 2, 3)
    }


def test_cpu_model_reads_the_first_model_name(tmp_path):
    cpuinfo = tmp_path / "cpuinfo"
    cpuinfo.write_text("processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\n"
                       "processor\t: 1\nmodel name\t: Other\n")
    assert tool.cpu_model(str(cpuinfo)) == "Example CPU @ 2.0GHz"
    assert tool.cpu_model(str(tmp_path / "missing")) == "unknown"


# ---------------------------------------------------------------------
# --compare: two trajectory files side by side
# ---------------------------------------------------------------------
END_TO_END = [
    {"name": "throughput_fps", "unit": "frames/s", "better": "higher", "bound": 0.25},
    {"name": "server_cpu_us_per_frame", "unit": "us/frame", "better": "lower", "bound": 0.25},
]

HOST = {"cpu_model": "Example Xeon", "nproc": 2, "python": "3.11.7", "numpy": "2.4.6",
        "calibration_iter_per_cpu_s": {"before": 3.5e7, "after": 3.4e7}}


def _trajectory(medians, host=HOST):
    """A trajectory file whose change arm has these ``{workload: {metric: median}}``."""
    return {
        "host": host,
        "summary": {"change": {
            workload: {name: {"median": value, "q1": value, "q3": value, "n": 10}
                       for name, value in metrics.items()}
            for workload, metrics in medians.items()
        }},
    }


def _flags(old, new):
    rows = tool.compare(_trajectory(old), _trajectory(new), END_TO_END)
    return {(row["workload"], row["metric"]): row["flagged"] for row in rows}


def test_compare_flags_a_move_past_the_bound_when_higher_is_better():
    old = {"wire-bulk": {"throughput_fps": 100.0}, "wire-small": {"throughput_fps": 100.0}}
    new = {"wire-bulk": {"throughput_fps": 74.0}, "wire-small": {"throughput_fps": 76.0}}
    assert _flags(old, new) == {
        ("wire-bulk", "throughput_fps"): True,
        ("wire-small", "throughput_fps"): False,
    }
    # A rise of any size is better, never flagged.
    assert _flags(new, old) == {
        ("wire-bulk", "throughput_fps"): False,
        ("wire-small", "throughput_fps"): False,
    }


def test_compare_flags_a_move_past_the_bound_when_lower_is_better():
    old = {"wire-bulk": {"server_cpu_us_per_frame": 1.0},
           "wire-small": {"server_cpu_us_per_frame": 1.0}}
    new = {"wire-bulk": {"server_cpu_us_per_frame": 1.26},
           "wire-small": {"server_cpu_us_per_frame": 1.24}}
    assert _flags(old, new) == {
        ("wire-bulk", "server_cpu_us_per_frame"): True,
        ("wire-small", "server_cpu_us_per_frame"): False,
    }
    assert not any(_flags(new, old).values())


def test_compare_rows_carry_both_medians_and_the_move():
    rows = tool.compare(
        _trajectory({"wire-bulk": {"throughput_fps": 25.0e6}}),
        _trajectory({"wire-bulk": {"throughput_fps": 68.75e6}, "new-only": {}}),
        END_TO_END,
    )
    assert rows == [{
        "workload": "wire-bulk", "metric": "throughput_fps", "old": 25.0e6,
        "new": 68.75e6, "move": pytest.approx(1.75), "bound": 0.25, "flagged": False,
    }]


def test_compare_warns_when_the_hosts_differ():
    assert tool.host_warnings(HOST, dict(HOST, calibration_iter_per_cpu_s={
        "before": 3.2e7, "after": 3.3e7})) == []
    other = dict(HOST, cpu_model="Other CPU", numpy="2.3.0",
                 calibration_iter_per_cpu_s={"before": 4.0e7, "after": 4.0e7})
    warnings = tool.host_warnings(HOST, other)
    assert len(warnings) == 3
    assert any("cpu_model" in warning for warning in warnings)
    assert any("numpy" in warning for warning in warnings)
    assert any("calibration" in warning for warning in warnings)
    assert len(tool.host_warnings(HOST, dict(HOST, python="3.12.1"))) == 1


def test_compare_exits_1_on_a_flag_and_prints_the_warnings(tmp_path, capsys):
    old, new, slow = (tmp_path / name for name in ("old.json", "new.json", "slow.json"))
    old.write_text(json.dumps(_trajectory({"wire-bulk": {"throughput_fps": 100.0}})))
    new.write_text(json.dumps(_trajectory({"wire-bulk": {"throughput_fps": 95.0}})))
    slow.write_text(json.dumps(_trajectory({"wire-bulk": {"throughput_fps": 50.0}},
                                           dict(HOST, python="3.12.1"))))
    assert tool.main(["--compare", str(old), str(new)]) == 0
    assert "WARNING" not in capsys.readouterr().out
    assert tool.main(["--compare", str(old), str(slow)]) == 1
    out = capsys.readouterr().out
    assert "WARNING: hosts differ: python" in out
    assert "WORSE" in out and "-50.0%" in out
