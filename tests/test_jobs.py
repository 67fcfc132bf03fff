"""jobs/run.py: argument handling, checked without starting Spark."""
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "jobs_run", Path(__file__).resolve().parents[1] / "jobs" / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def test_unknown_table_exits_with_usage(monkeypatch, capsys):
    def no_spark(app):
        raise AssertionError(f"SparkSession {app!r} started for a bad argument")

    monkeypatch.setattr(run, "get_spark", no_spark)
    with pytest.raises(SystemExit) as exc:
        run.main(["5"])
    assert exc.value.code != 0
    assert "usage:" in capsys.readouterr().err
