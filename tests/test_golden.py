"""Golden reports: the 12 builtins, the 7 benchmark configs and the physics configs of ``tests/golden/configs``,
rerun in process against ``tests/golden``.

Each golden file is the JSON report ``qrf run`` gives for its source, without
its basis tables.  The comparison applies ``scripts/compare_reports.py``'s
rules: exit status, check verdicts, every dimension field and
``checks_total`` must match exactly, no other field may change, and every
other float must lie within the report's ``tolerance``, taken as an absolute
bound.

To regenerate the files after an intended report change, run
``PYTHONPATH=src python tests/test_golden.py`` from the repository root, and
state the ``compare_reports`` output against the parent in CHANGES.md.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from qrf import cli
from qrf.builtins_config import builtin_names

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
PHYSICS = GOLDEN / "configs"  # configs that show what the builtins do not: a finite isotropy, a rotating perspective


def _module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sources(config_dir: Path) -> dict:
    """Golden file name -> what ``qrf run`` takes: each builtin, each benchmark config written to config_dir, and
    each physics config."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # as scripts/run_builtins.py reads it
    import workloads

    for workload in workloads.WORKLOADS.values():
        workloads.write_configs(workload, config_dir)
    out = {f"{name.replace(':', '_')}.json": name for name in builtin_names()}
    out.update({p.name: str(p) for p in sorted(config_dir.glob("*.json"))})
    out.update({p.name: str(p) for p in sorted(PHYSICS.glob("*.json"))})
    return out


def without_bases(x):
    """The report with every ``basis`` table left out."""
    if isinstance(x, dict):
        return {k: without_bases(v) for k, v in x.items() if k != "basis"}
    if isinstance(x, list):
        return [without_bases(v) for v in x]
    return x


def report(source: str) -> dict:
    return without_bases(json.loads(cli.emit(cli.run(cli.load_config(source)), "json")))


@pytest.fixture(scope="module")
def golden_sources(tmp_path_factory):
    return sources(tmp_path_factory.mktemp("configs"))


@pytest.fixture(scope="module")
def compare():
    return _module(ROOT / "scripts" / "compare_reports.py")


def test_every_source_has_a_golden_report(golden_sources):
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(golden_sources)
    assert len(golden_sources) == 19 + len(list(PHYSICS.glob("*.json")))


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_report_matches_its_golden(name, golden_sources, compare):
    assert_matches(compare, json.loads((GOLDEN / name).read_text()), report(golden_sources[name]))


def assert_matches(compare, old: dict, new: dict) -> None:
    assert compare.exit_status(new) == compare.exit_status(old)
    assert compare.verdicts(new) == compare.verdicts(old)
    assert compare.dim_fields(new) == compare.dim_fields(old)
    assert new["summary"]["checks_total"] == old["summary"]["checks_total"]
    state = {"max": 0.0, "where": "-", "differs": [], "bases": [], "tols": []}
    compare.float_diff(old, new, "", state)
    assert state["differs"] == []
    bound = old["tolerance"]
    assert state["max"] <= bound, state["where"]
    assert all(gap <= bound for gap, _ in state["tols"]), state["tols"]


@pytest.mark.parametrize("name", ["su2-three-spin1.json", "su2-four-spin1.json", "su2-5-spin1.json",
                                  "su2-6-spin1.json"])
def test_su2_reports_build_no_dense_total_generator(name, golden_sources, monkeypatch):
    # the totals and complements are held by their factor spins: every SU(2) report runs, to its golden bytes, with
    # the lazy Kronecker-sum build of their dense generators raising
    from qrf import reps

    monkeypatch.setattr(reps, "_kronecker_sum", lambda *pair: pytest.fail("dense SU(2) generators built"))
    assert report(golden_sources[name]) == json.loads((GOLDEN / name).read_text())


def _omitted_basis(name: str) -> bool:  # a report of U(1) or regular finite frames whose basis table is left out
    results = json.loads((GOLDEN / name).read_text())["tasks"][0]["results"]
    return name.startswith(("u1-", "finite-regular", "regular-")) and results["phys_dim"] * results["kin_dim"] > 2048


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json") if _omitted_basis(p.name)))
def test_reports_without_a_basis_table_form_no_dense_physical_basis(name, golden_sources, compare, monkeypatch):
    # B is held by its row labels on the table and charge paths, and every reader of such a report takes them
    from qrf import linalg

    monkeypatch.setattr(linalg.RowLabels, "basis", property(lambda self: pytest.fail("dense B built")))
    assert_matches(compare, json.loads((GOLDEN / name).read_text()), report(golden_sources[name]))


def test_u1_10_report_traces_under_19_mib(golden_sources):
    # 28.4 MiB with the dense B, its canonicalize pass, the SVD closure and the whole T_R B of the product form;
    # 19.5 MiB while the weak check held whole relational observables, 16.8 MiB with their blocks built on read
    import tracemalloc

    cfg = cli.load_config(golden_sources["u1-10-qubits.json"])
    tracemalloc.start()
    try:
        cli.run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 19 * 2**20, peak / 2**20


def test_s3_isotropy_report_shows_a_rotating_perspective():
    # effect (ii): frame P (S3 on three points, seed e_0, isotropy {e, (12)}) has a dense C_e, whose closure grows
    # to 30 dimensions against 18 physical ones; the identity-ket frame R has the coordinate span, n_phys
    results = json.loads((GOLDEN / "s3-isotropy.json").read_text())["tasks"][0]["results"]
    p, r = results["frames"]["P"], results["frames"]["R"]
    assert results["phys_dim"] == 18
    assert (p["orientation_independent"], p["conditional_span_dim"], p["isotropy_elements"], p["lr_exists"]) == (
        False, 30, [0, 1], False)
    assert (r["orientation_independent"], r["conditional_span_dim"], r["isotropy_elements"]) == (True, 18, [0])


def main() -> int:
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, source in sources(Path(tmp)).items():
            (GOLDEN / name).write_text(json.dumps(report(source), indent=1, sort_keys=True) + "\n")
            print(f"wrote {GOLDEN / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
