"""The README's "Library use" examples run as written, and its shell
commands parse."""

import ast
import dataclasses
import re
import shlex
from pathlib import Path

import binrisk
from binrisk.cli import build_parser
from binrisk.config import PipelineConfig
from binrisk.cpg import dumps_cpg

ROOT = Path(__file__).resolve().parents[1]


def library_snippets() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_use_snippets_run(tmp_path, monkeypatch, capsys):
    snippets = library_snippets()
    assert len(snippets) == 3
    # The snippets name fixtures/ and build/ relative to the checkout;
    # run them beside a link to the fixtures so build/ is made here.
    (tmp_path / "fixtures").symlink_to(ROOT / "fixtures", target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for snippet in snippets:  # later snippets use the names of earlier ones
        exec(compile(snippet, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.startswith("[(")
    assert namespace["ids"].tolist() == namespace["kg"].entity_ids.tolist()
    assert namespace["vectors"].shape == (len(namespace["kg"]), 256)
    written = (tmp_path / "build" / "toy_modbus.cpg.json").read_text(encoding="utf-8")
    assert written == dumps_cpg(namespace["g"])


def imported_from_binrisk(source: str) -> set[str]:
    """The names ``source`` imports ``from binrisk``."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "binrisk" and not node.level
            for alias in node.names}


def test_all_is_what_library_use_imports():
    """binrisk.__all__ names exactly what "Library use" imports from binrisk."""
    documented = set()
    for snippet in library_snippets():
        documented |= imported_from_binrisk(snippet)
    assert len(binrisk.__all__) == len(set(binrisk.__all__))
    assert set(binrisk.__all__) == documented
    assert all(hasattr(binrisk, name) for name in binrisk.__all__)


def test_package_reexports_only_what_is_imported_from_it():
    """Every name binrisk/__init__.py imports is in __all__ or is imported
    from binrisk by a demo, a fixture script or a benchmark file."""
    used = set(binrisk.__all__)
    for folder in ("demos", "fixtures", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            used |= imported_from_binrisk(path.read_text(encoding="utf-8"))
    init = ast.parse(Path(binrisk.__file__).read_text(encoding="utf-8"))
    reexported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
    assert sorted(reexported - used) == []


def test_config_field_list_names_every_field():
    """README "File formats" lists every PipelineConfig field, in order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    bullet = text.split("- **Config**:", 1)[1].split("\n- **", 1)[0]
    listed = " ".join(bullet.split()).split("Its fields, every one optional: ", 1)[1]
    names = re.findall(r"`(\w+)`", listed.split(". ", 1)[0])
    assert names == [f.name for f in dataclasses.fields(PipelineConfig)]


def shell_commands() -> list[list[str]]:
    """Each ``binrisk ...`` command in README's shell blocks, as argv
    after the program name, with ``\\`` continuations joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line.removeprefix("$ "))
            if words[:1] == ["binrisk"]:
                commands.append(words[1:])
    return commands


def test_shell_commands_parse():
    """No README command uses a flag the CLI does not have."""
    commands = shell_commands()
    assert len(commands) == 10
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
