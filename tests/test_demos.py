"""Each demo's main(), run in process, prints its golden output.

Regenerate the golden files with `PYTHONPATH=src python tests/test_demos.py`.
"""

import contextlib
import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")
GOLDEN = os.path.join(ROOT, "tests", "golden", "demos")
NAMES = sorted(f[:-3] for f in os.listdir(DEMOS) if f.endswith(".py"))


def load(name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", os.path.join(DEMOS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_path(name):
    return os.path.join(GOLDEN, f"{name}.txt")


@pytest.mark.parametrize("name", NAMES)
def test_demo_prints_golden_output(name, capsys):
    load(name).main()
    with open(golden_path(name), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name in NAMES:
        with open(golden_path(name), "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            load(name).main()
