"""The scripts under ``scripts/`` run end to end in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import peelbound

ROOT = Path(__file__).resolve().parent.parent


def run_python(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(peelbound.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def run_script(name: str, *argv: str) -> subprocess.CompletedProcess:
    return run_python(str(ROOT / "scripts" / name), *argv)


def test_run_families_rows(tmp_path):
    out = tmp_path / "rows.json"
    proc = run_script("run_families.py", "--gs", "3", "--ks", "3", "--prisms", "1", "--json", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())
    assert [r["instance"] for r in rows] == ["nested g=3 k=3", "H g=3 k=3", "prism k=1"]
    for r in rows:
        assert r["fse_bruteforce"] <= r["realized_peels"] <= r["peel_bound"]
        assert r["certify_seconds"] >= 0 and r["oracle_seconds"] >= 0


def test_run_families_exits_one_when_the_chain_breaks():
    # an oracle that reads fse above the realized count; the check must
    # survive -O, which strips an assert
    script = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('run_families', {str(ROOT / 'scripts' / 'run_families.py')!r})\n"
        "mod = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(mod)\n"
        "mod.fse_outerplanarity_bruteforce = lambda g: type('Fse', (), {'value': 99})\n"
        "sys.exit(mod.main(['--gs', '3', '--ks', '3', '--prisms', '']))\n"
    )
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: nested g=3 k=3: fse 99, realized peels 4, peel bound 6"
        " break fse <= realized <= peel bound\n"
    )
