"""README's "Fixed settings" list and "Library quick start" agree with the code.

Every `` `module.NAME = value` `` entry in that section names a constant of
``gwqap.<module>``; the test evaluates the value as a Python literal and
compares it, type included, with the constant, so the list cannot drift.
The quick-start block is run as it stands, so a name it imports cannot leave
the API unnoticed.
"""

import ast
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
ENTRY = re.compile(r"`(\w+)\.(_?[A-Z][A-Z0-9_]*) = ([^`]+)`")


def section(title):
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def fixed_settings():
    # an entry may wrap onto the next line of the list
    return ENTRY.findall(" ".join(section("Fixed settings").split()))


def test_fixed_settings_match_the_code():
    entries = fixed_settings()
    names = {f"{module}.{name}" for module, name, _ in entries}
    assert {"ga.CROSSOVER_RATE", "ga.MUTATION_RATE", "ga.TOURNAMENT_SIZE",
            "core.PROJECTION_MAX_SWEEPS", "bench._GENERATION_ATTEMPTS"} <= names
    assert len(names) == len(entries), "an entry is listed twice"
    for module, name, value in entries:
        actual = getattr(importlib.import_module(f"gwqap.{module}"), name)
        documented = ast.literal_eval(value)
        assert (type(actual), actual) == (type(documented), documented), (
            f"README says {module}.{name} = {value}, the code has {actual!r}"
        )


def test_library_quick_start_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", section("Library quick start"), re.S)
    exec(compile(block, "README quick start", "exec"), {})
    objective, optimum, proven = capsys.readouterr().out.split()
    assert float(objective) >= float(optimum) and proven == "True"
