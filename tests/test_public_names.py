"""The package's public names against the README table that gives each its
reason, and the package functions that the traced benchmark wraps by name."""

import argparse
import importlib
import inspect
import re
import types
from pathlib import Path

import minbasis as mb
from minbasis.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent

# The forms of a reason: a north-star question (or a range of them), a CLI
# command (bare: every command), a benchmark op, an acceptance criterion.
REASON = re.compile(
    r"north star Q[1-5](–Q[1-5])?"
    r"|CLI( `(?P<command>[a-z-]+)`)?"
    r"|benchmark op `(?P<op>[a-z_]+)`"
    r"|AC (?P<ac>\d+)"
)


def _readme_rows() -> list[tuple[str, str]]:
    """(name, reason) of each row of the table under "## Public names"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            name, reason = [cell.strip() for cell in line.strip("|").split("|")][:2]
            rows.append((name.strip("`"), reason))
    return rows


def test_the_readme_table_lists_exactly_the_public_names():
    names = [name for name, _ in _readme_rows()]
    assert len(names) == len(set(names))
    public = {name for name, value in vars(mb).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public


def test_each_public_name_has_one_reason_that_holds():
    parser = _build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    bench = "".join((ROOT / "benchmarks" / f).read_text(encoding="utf-8")
                    for f in ("workloads.py", "inputs.py"))
    ops = set(re.findall(r'ops\.call\(\s*"([a-z_]+)"', bench))
    acceptance = importlib.import_module("test_acceptance")
    criteria = {int(m[1]): fn for name, fn in vars(acceptance).items()
                if (m := re.fullmatch(r"test_criterion_(\d+)_\w+", name))}
    for name, reason in _readme_rows():
        match = REASON.fullmatch(reason)
        assert match, f"{name}: {reason!r} is not a reason"
        # A report type or an error class takes its function's reason, so
        # only a function must appear where its reason says it is called.
        function = not isinstance(getattr(mb, name), type)
        if match["command"]:
            assert match["command"] in commands, name
        if match["op"]:
            assert match["op"] in ops, name
            assert not function or re.search(rf"\bmb\.{name}\b", bench), name
        if match["ac"]:
            criterion = criteria[int(match["ac"])]
            assert not function or re.search(rf"\b{name}\b", inspect.getsource(criterion)), name


def test_the_traced_benchmark_finds_every_function_it_wraps(monkeypatch):
    # A traced run (run.py --trace 1) wraps these by name; a name that is gone
    # fails install() with an AttributeError.
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    spans = importlib.import_module("spans")
    originals = {}
    for layer, names in spans.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"minbasis.{layer}")
        for name in names:
            originals[module, name] = getattr(module, name)
    certify = mb.certify_minimal_basis
    recorder = spans.Recorder()
    try:
        recorder.install()
        for (module, name), fn in originals.items():
            assert getattr(module, name) is not fn, f"{module.__name__}.{name} not wrapped"
        assert mb.certify_minimal_basis is not certify  # the package's binding too
    finally:
        recorder.uninstall()
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn
    assert mb.certify_minimal_basis is certify
