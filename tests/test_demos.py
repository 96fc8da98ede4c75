"""Every demo script imports cleanly, so a removed public name fails here,
and README's quickstart runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_without_running(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_readme_quickstart_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    triples = [(("c1", "raloxifene", "Compound"), "binds", ("g1", "ERBB2", "Gene")),
               (("g1", "ERBB2", "Gene"), "associates", ("d1", "melanoma", "Disease"))]
    (tmp_path / "kg.jsonl").write_text("".join(
        json.dumps({"head": dict(zip(("id", "name", "type"), head)), "relation": relation,
                    "tail": dict(zip(("id", "name", "type"), tail))}) + "\n"
        for head, relation, tail in triples), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "raloxifene → ERBB2 → melanoma"
