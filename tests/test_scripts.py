"""The maintenance scripts under ``scripts/`` still run against the package."""

import importlib.util
import shutil

from conftest import REPO_ROOT, TOY_DIR


def test_make_toy_fixtures_rewrites_the_committed_fixtures(tmp_path, monkeypatch):
    path = REPO_ROOT / "scripts" / "make_toy_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_toy_fixtures", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    toy = tmp_path / "toy"
    shutil.copytree(TOY_DIR, toy)
    (toy / "fixtures.json").unlink()
    monkeypatch.setattr(script, "TOY_DIR", toy)
    assert script.main() == 0
    assert (toy / "fixtures.json").read_bytes() == (TOY_DIR / "fixtures.json").read_bytes()
