"""The benchmark's tracer patches names that exist and restores every one.

`bench/tracing.py` wraps starpinch functions at the module attributes their
callers look up.  A name that disappears from `src/` would break a traced
benchmark run without failing any other test.
"""

import importlib
import importlib.util
import re
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lookup(module_name, attr):
    """The current object at a dotted attribute of an imported module."""
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_installed_tracer_wraps_and_restores_every_site():
    tracing = load_tracing()
    originals = {(module, attr): lookup(module, attr) for module, attr, _ in tracing.SITES}
    with tracing.Tracer().installed():
        for (module, attr), original in originals.items():
            assert lookup(module, attr) is not original, f"{module}.{attr} not wrapped"
    for (module, attr), original in originals.items():
        assert lookup(module, attr) is original, f"{module}.{attr} not restored"


def test_each_name_kept_importable_for_the_tracer_is_a_site():
    # a "# <name> stays importable" comment keeps a name alive only for the tracer;
    # once the tracer drops that site, this test names the code kept for it
    sites = {(module, attr) for module, attr, _ in load_tracing().SITES}
    src = Path(__file__).resolve().parents[1] / "src" / "starpinch"
    kept = [(f"starpinch.{path.stem}", name) for path in sorted(src.glob("*.py"))
            for name in re.findall(r"^# (\w+) stays importable", path.read_text(), re.M)]
    assert kept, "no stays-importable comment found"
    for module, name in kept:
        assert (module, name) in sites, f"{module}.{name} is kept importable for no site"
