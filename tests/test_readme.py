"""README's "Library quick tour" block runs as written, and its criterion table matches the registry."""

import re
from pathlib import Path

from hwsep.criteria import REGISTRY

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs():
    text = README.read_text()
    tour = text[text.index("## Library quick tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README.md quick tour", "exec"), {})


def test_criterion_table_matches_the_registry():
    """Each row of README's criterion table names a REGISTRY row, in order, with its parameters and reported keys."""
    text = README.read_text()
    table = text[text.index("| name ") :].split("\n\n")[0]
    rows = {}
    for name, rest in re.findall(r"^\| `(\w+)` +\|(.*)\|$", table, re.M):
        required, optional, _fixed, _min_m, reports = rest.split("|")
        rows[name] = tuple(tuple(re.findall(r"`(\w+)`", cell)) for cell in (required, optional, reports))
    expected = {name: (row.required, row.optional, row.reported) for name, row in REGISTRY.items()}
    assert list(rows.items()) == list(expected.items())
