"""`scripts/diffcheck.py`: a tree run against itself shows no difference, and
a copy whose simulator links are slower is named by its first differing
field, and listed by every field that differs."""

import importlib.util
import re
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
    assert compared == 40
    lines = report.splitlines()
    first = re.match(r"seed (\d+): rounds\[0\]\.latency: base '", lines[0])
    assert first
    assert lines[1].startswith('  case: {"branching": ')
    assert re.fullmatch(r"fields that differ, in \d+ of 40 cases:", lines[2])
    listed = {line.split(": ")[0].strip(): line for line in lines[3:]}
    assert listed["rounds[].latency"].endswith(f" cases, first seed {first.group(1)}")
