"""Edge-case tests for the kernel and the experiment CLI."""

from repro.sim import Environment
from repro.experiments.registry import ExperimentResult


def test_process_waiting_on_failed_process_propagates():
    env = Environment()
    seen = []

    def child(env):
        yield env.timeout(1)
        raise ValueError("child broke")

    def parent(env):
        try:
            yield env.process(child(env))
        except ValueError as exc:
            seen.append(str(exc))

    env.process(parent(env))
    env.run()
    assert seen == ["child broke"]


def test_experiment_result_csv_roundtrip():
    result = ExperimentResult(
        "figX", "title", ["a", "b"], [[1, "x"], [2.5, "y"]]
    )
    csv_text = result.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1,x"
    assert lines[2] == "2.5,y"


def test_cli_csv_export(tmp_path):
    from repro.experiments.__main__ import main

    exit_code = main(["fig13", "--csv-dir", str(tmp_path)])
    assert exit_code == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert "fig13.csv" in written
    assert "fig13-gaps.csv" in written
    content = (tmp_path / "fig13-gaps.csv").read_text()
    assert content.startswith("system,")


def test_cli_lists_experiments(capsys):
    from repro.experiments.__main__ import main

    assert main([]) == 0
    out = capsys.readouterr().out
    assert "fig10" in out and "fig19" in out
