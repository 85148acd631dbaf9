import re
from pathlib import Path

import txpattern

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve():
    for name in txpattern.__all__:
        assert hasattr(txpattern, name), name


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    imported = re.search(r"from txpattern import \(([^)]*)\)", code).group(1)
    assert {n.strip() for n in imported.split(",")} <= set(txpattern.__all__)
    exec(compile(code, str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
