"""`scripts/diffcheck.py`: a tree run against itself shows no difference, and
a copy whose simulator links are slower is named by its first differing
field."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_diffcheck():
    spec = importlib.util.spec_from_file_location("diffcheck",
                                                  ROOT / "scripts" / "diffcheck.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_working_tree_matches_itself():
    assert load_diffcheck().compare(ROOT / "src", ROOT / "src", cases=40) == (40, None)


def test_copy_with_another_rtt_named_by_field(tmp_path):
    shutil.copytree(ROOT / "src" / "cosikit", tmp_path / "cosikit")
    simnet = tmp_path / "cosikit" / "simnet.py"
    text = simnet.read_text()
    assert text.count("rtt: ClassVar[float] = 0.2") == 1
    simnet.write_text(text.replace("rtt: ClassVar[float] = 0.2", "rtt: ClassVar[float] = 0.3"))
    compared, report = load_diffcheck().compare(ROOT / "src", tmp_path, cases=40)
    first = report.splitlines()[0]
    assert first.startswith(f"seed {compared}: rounds[0].latency: base '")
    assert report.splitlines()[1].startswith('  case: {"branching": ')
