"""Names that outside readers rely on: the README's library example and
the functions the benchmark's tracer wraps by name."""

import importlib
import pathlib
import re

from incalg import NotInnerWitness

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_library_example():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "NotInnerWitness(cycle b-d-a-c-b, weight 3)" in code
    assert "ws == w1 * w0" in code
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    found, ws, w1, w0 = scope["found"], scope["ws"], scope["w1"], scope["w0"]
    assert isinstance(found, NotInnerWitness)
    assert str(found.cycle) == "b-d-a-c-b"
    assert found.weight == 3
    assert ws == w1 * w0


def test_traced_names_resolve():
    """Every (module, attribute path) the tracer in bench/spans.py wraps
    exists where it looks for it: in the module, or in the class's own
    namespace for methods."""
    source = ROOT / "bench" / "spans.py"
    spans = {"__name__": "spans"}
    exec(compile(source.read_text(encoding="utf-8"), str(source), "exec"), spans)
    for module, path, _ in spans["SPANS"] + spans["COUNTERS"]:
        owner = importlib.import_module(f"incalg.{module}")
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        assert attr in vars(owner), f"incalg.{module}.{path} is gone"
