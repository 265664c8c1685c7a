"""tools/sweep.py ``--resume``: queries already OK in the ledger are
skipped and keep their entries; every other query runs again. Its
schema-warning counter counts Ray Data's two schema warnings only.
Needs no Ray session."""
import importlib.util
import json
import logging
import os

_SWEEP = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                      "tools", "sweep.py")


def _sweep():
    spec = importlib.util.spec_from_file_location("sweep", _SWEEP)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_resume_keeps_ok_entries_only(tmp_path):
    sweep = _sweep()
    ledger = [{"name": "a_q", "status": "OK", "seconds": 1.0},
              {"name": "b_q", "status": "FAIL", "seconds": 2.0},
              {"name": "c_q", "status": "ERR", "seconds": 0.1},
              {"name": "d_q", "status": "TIMEOUT", "seconds": 600.0},
              {"name": "e_q", "status": "OK", "seconds": 3.0}]
    path = tmp_path / "sweep-sf.json"
    path.write_text(json.dumps(ledger))
    kept = sweep.resumed(str(path))
    assert kept == [ledger[0], ledger[4]]
    assert sweep.resumed(str(tmp_path / "missing.json")) == []

    names = ["a_q", "b_q", "c_q", "d_q", "e_q", "f_q"]
    done = {e["name"] for e in kept}
    assert sweep.to_run(names, (), done) == ["b_q", "c_q", "d_q", "f_q"]
    assert sweep.to_run(names, ("a_", "b_", "f_"), done) == ["b_q", "f_q"]
    assert sweep.to_run(names, (), set()) == names


def test_schema_warning_counter_counts_the_two_warnings_only():
    sweep = _sweep()
    parent = logging.getLogger("sweep_test_data")
    child = logging.getLogger("sweep_test_data.execution")
    parent.setLevel(logging.DEBUG)
    parent.propagate = False
    counter = sweep.SchemaWarnings()
    parent.addHandler(counter)
    try:
        child.warning("Operator produced a RefBundle with a different "
                      "schema than the previous one. Previous schema: "
                      "k: int64, new schema: .")
        parent.warning("Failed to hash the schemas (for deduplication): "
                       "unhashable type: 'dict'")
        child.warning("Failed to hash the schemas (for deduplication): %s",
                      "unhashable type: 'dict'")
        parent.warning("some other warning")
        child.info("Execution plan of Dataset: ...")
        assert counter.count == 3
        counter.count = 0
        logging.getLogger("sweep_test_other").warning(
            "Operator produced a RefBundle with a different schema")
        assert counter.count == 0
    finally:
        parent.removeHandler(counter)
