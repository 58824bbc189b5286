"""`perfbench/tracer.py`, loaded as it stands, against this tree: it finds
every binding it traces, under the name it reads it by, and puts each one
back when it is uninstalled. A refactor that moves or unbinds a traced name
fails here on every Python version, not only in the traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

from cosikit import engine

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracer) -> dict:
    """Every attribute of every cosikit module and of every class the tracer
    patches, by (owner, name)."""
    owners = [m for k, m in sys.modules.items() if k == "cosikit" or k.startswith("cosikit.")]
    owners += [owner for owner, *_ in tracer.TRACED if isinstance(owner, type)]
    return {(owner, key): value for owner in owners for key, value in vars(owner).items()}


def test_tracer_installs_and_restores_every_binding():
    tracer = load_tracer()
    before = bindings(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        patched = list(t._patches)
        for owner, attr, raw in patched:
            assert vars(owner)[attr] is not raw, (owner, attr)
    finally:
        t.uninstall()
    assert {(owner, attr) for owner, attr, *_ in tracer.TRACED} \
        <= {(owner, attr) for owner, attr, _ in patched}
    assert (engine, "encode_message", engine.encode_message) in patched
    after = bindings(tracer)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
