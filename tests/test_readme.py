"""The README's library quick start and CLI commands run as written, its
annotated experiment config parses, and the package names it and the
docstrings cite exist."""
import argparse
import importlib
import json
import pkgutil
import re
import shlex
from pathlib import Path

import soslab
from soslab.cli import build_parser, main
from soslab.lab import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    # The experiment line names a placeholder config; the others run in
    # order, the first writing the k4.json the rest read.
    block = re.search(r"## CLI\n\n```\n(.*?)```", README.read_text(), flags=re.DOTALL).group(1)
    commands = [shlex.split(line) for line in block.splitlines()]
    commands = [argv for argv in commands if argv[1] != "experiment"]
    assert [argv[1] for argv in commands] == ["generate", "certify", "estimate", "estimate"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "soslab"
        assert main(argv[1:]) == 0, argv


def test_readme_cli_section_names_the_parsers_flags():
    # A flag the section names and no subcommand takes sends the reader to
    # a usage error; a flag a subcommand takes and the section leaves out
    # is not documented.
    text = README.read_text()
    section = re.search(r"^## CLI\n(.*?)^## ", text, flags=re.DOTALL | re.MULTILINE).group(1)
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        flag
        for sub in commands.choices.values()
        for action in sub._actions
        for flag in action.option_strings
        if flag != "--help" and flag.startswith("--")
    }
    assert (sorted(documented - flags), sorted(flags - documented)) == ([], [])


def test_readme_config_example_parses():
    # A key the parser rejects must not be documented as one it reads.
    text = README.read_text()
    block = re.search(r"### Experiment configs\n\n```json\n(.*?)```", text, flags=re.DOTALL).group(1)
    doc = json.loads(re.sub(r"//[^\n]*", "", block))
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.solver.max_iter == doc["solver"]["max_iter"]


def _resolves(module, attrs):
    obj = importlib.import_module(f"soslab.{module}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_cited_names_resolve():
    # a dotted name in backticks whose head is a soslab module, e.g.
    # `sos.assemble_level` or ``subsets.entry_map(d, ell)``: a name that
    # moved or went away would send the reader to nothing
    modules = {m.name for m in pkgutil.iter_modules(soslab.__path__)}
    cited = re.compile(r"`+(?:soslab\.)?([a-z_]+)((?:\.\w+)+)(?:\([^`]*\))?`+")
    texts = [README.read_text()] + [p.read_text() for p in Path(soslab.__file__).parent.glob("*.py")]
    names = [m.groups() for text in texts for m in cited.finditer(text) if m.group(1) in modules]
    assert len(names) >= 20
    assert [m + a for m, a in names if not _resolves(m, a.split(".")[1:])] == []
