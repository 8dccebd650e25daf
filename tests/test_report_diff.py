import json
import subprocess
import sys
from pathlib import Path

from sector_radius.harness import run_suite
from sector_radius.norms import OPERATOR, schatten

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"


def run_tool(tmp_path, old: dict, new: dict) -> subprocess.CompletedProcess:
    paths = []
    for name, obj in (("old.json", old), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        paths.append(str(path))
    return subprocess.run([sys.executable, str(TOOL), *paths], capture_output=True, text=True)


def small_report() -> dict:
    report = run_suite(["A_lower", "P1_re_mono"], 2, [2, 3], [OPERATOR, schatten(3)], seed=5)
    return json.loads(report.to_json())


def test_identical_reports_have_no_moves(tmp_path):
    old = small_report()
    new = small_report()
    done = run_tool(tmp_path, old, new)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[0] == "no moves"


def test_a_perturbed_field_is_named(tmp_path):
    old = small_report()
    new = json.loads(json.dumps(old))
    target = new["results"][3]
    target["rhs"][1] *= 1.0 + 1e-12
    new["config"]["m_fold"] = 4
    done = run_tool(tmp_path, old, new)
    assert done.returncode == 1
    lines = done.stdout.splitlines()
    assert "config m_fold: 3 -> 4" in lines
    moved = [line for line in lines if line.startswith("moved")]
    assert len(moved) == 1, lines
    assert moved[0].startswith(f"moved rhs.hi [{target['norm']}]: 1 values, largest 1e-12 relative")
    assert f"{target['id']} n={target['dim']} seed={target['seed']}" in moved[0]
    assert moved[0].endswith("; 1 widened, 0 narrowed"), moved[0]


def test_usage_and_read_errors_exit_2(tmp_path):
    # Exit 1 means "values moved", so a bad call must not end with it.
    old = tmp_path / "old.json"
    old.write_text(json.dumps(small_report()))
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    for args in ([str(old)], [str(old), str(tmp_path / "missing.json")], [str(old), str(bad)]):
        done = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)
        assert done.returncode == 2, (args, done.stdout, done.stderr)
        assert done.stdout == "" and len(done.stderr.splitlines()) == 1, done.stderr
        assert done.stderr.startswith("error: ")


def test_text_and_none_moves_are_counted_not_sized(tmp_path):
    # A note or a ratio that becomes None has no relative size: the line
    # says how many moved and what happened to them.
    old = small_report()
    new = json.loads(json.dumps(old))
    first, second = new["results"][0], new["results"][1]
    first["note"] = "a new note"
    second["ratio"] = None
    done = run_tool(tmp_path, old, new)
    assert done.returncode == 1
    moved = [line for line in done.stdout.splitlines() if line.startswith("moved")]
    assert f"moved note [{first['norm']}]: 1 values, 1 changed" in moved, moved
    assert f"moved ratio [{second['norm']}]: 1 values, 1 became None" in moved, moved
    assert not any("inf" in line for line in moved), moved
    # The reverse move, from None, is named as such.
    done = run_tool(tmp_path, new, old)
    assert f"moved ratio [{second['norm']}]: 1 values, 1 was None" in done.stdout.splitlines()


def test_each_moved_id_is_listed_with_old_and_new_values(tmp_path):
    old = small_report()
    new = json.loads(json.dumps(old))
    _, second = sorted(new["summary"]["per_id"])
    new["summary"]["per_id"][second]["worst_margin"] = 0.25
    done = run_tool(tmp_path, old, new)
    assert done.returncode == 1
    listed = [line for line in done.stdout.splitlines() if line.startswith("id ")]
    was = old["summary"]["per_id"][second]
    assert listed == [f"id {second}: max_ratio {was['max_ratio']!r} -> {was['max_ratio']!r}, "
                      f"worst_margin {was['worst_margin']!r} -> 0.25"], listed
    # Identical reports list no id.
    done = run_tool(tmp_path, old, old)
    assert not any(line.startswith("id ") for line in done.stdout.splitlines())


def test_each_id_counts_its_moved_results(tmp_path):
    # Two fields of one result count it once; ids with no moved result
    # get no line.
    old = small_report()
    new = json.loads(json.dumps(old))
    ineq = new["results"][-1]["id"]
    mine = [r for r in new["results"] if r["id"] == ineq]
    mine[0]["note"] = "a new note"
    mine[0]["rhs"][1] *= 2.0
    mine[1]["ratio"] = None
    done = run_tool(tmp_path, old, new)
    assert done.returncode == 1
    counted = [line for line in done.stdout.splitlines() if line.startswith("results ")]
    assert counted == [f"results {ineq}: 2 of {len(mine)} moved"], counted
    done = run_tool(tmp_path, old, old)
    assert not any(line.startswith("results ") for line in done.stdout.splitlines())


def test_the_last_line_compares_the_bytes(tmp_path):
    # Two runs of one suite differ only in their wall time line.
    texts = [run_suite(["A_lower", "P1_re_mono"], 2, [2, 3], [OPERATOR], seed=5).to_json() for _ in range(2)]
    assert texts[0] != texts[1]
    paths = [tmp_path / "old.json", tmp_path / "new.json"]
    for path, text in zip(paths, texts):
        path.write_text(text + "\n")
    done = subprocess.run([sys.executable, str(TOOL), *map(str, paths)], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == 'bytes: identical apart from the "wall_time_s" line'
    # A moved value is named by the first line it is on.
    obj = json.loads(texts[0])
    obj["results"][1]["note"] = "moved"
    paths[1].write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    number = [i for i, line in enumerate(texts[0].splitlines(), 1) if '"note"' in line][1]
    done = subprocess.run([sys.executable, str(TOOL), *map(str, paths)], capture_output=True, text=True)
    assert done.returncode == 1
    assert done.stdout.splitlines()[-1] == f"bytes: first difference at line {number}: '\"note\": \"\",' -> '\"note\": \"moved\",'"
    # A file that ends early differs at the line after its last.
    paths[1].write_text(texts[0])
    done = subprocess.run([sys.executable, str(TOOL), *map(str, paths)], capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stdout.splitlines()[-1] == f"bytes: first difference at line {len(texts[0].splitlines()) + 1}: one file ends before it"
