"""The CI floor job installs the dependency floors that pyproject.toml declares.

Both files are read as plain text: ``tomllib`` is absent on Python 3.10 and
pyyaml is not a test dependency. A floor raised in one file and not in the
other fails here.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def declared_floors():
    project = (ROOT / "pyproject.toml").read_text()
    floors = {"Python": re.search(r'^requires-python = ">=([\d.]+)"$', project, re.M)}
    for dep in ("click", "numpy", "scipy"):
        floors[dep] = re.search(rf'^\s*"{dep}>=([\d.]+)",$', project, re.M)
    assert all(floors.values()), f"a floor is missing from pyproject.toml: {floors}"
    return {name: match.group(1) for name, match in floors.items()}


def floor_job():
    """The floor entry of the workflow's matrix, as its key -> value lines."""
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    entries = re.split(r"^\s*- name: ", workflow, flags=re.M)
    (entry,) = [e for e in entries if e.startswith("floor")]
    job = {"name": entry.split("\n", 1)[0]}
    for key, value in re.findall(r'^\s+(python|pins): "([^"]*)"$', entry, re.M):
        job[key] = value
    return job


def test_floor_job_pins_the_declared_floors():
    floors = declared_floors()
    job = floor_job()
    assert job["python"] == floors["Python"]
    assert sorted(job["pins"].split()) == [
        f"{dep}=={floors[dep]}.*" for dep in ("click", "numpy", "scipy")
    ]
    for name, version in floors.items():
        assert f"{name} {version}" in job["name"], job["name"]
