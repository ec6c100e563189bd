import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sfekit
from sfekit import (
    ConfigError,
    DatasetSpec,
    ExperimentConfig,
    HybridParams,
    PsoParams,
    SfeParams,
    build_report,
    derive_seed,
    emit_convergence,
    format_report,
    load_config,
    load_runs,
    run_experiment,
    write_config,
)
from sfekit.cli import main
from sfekit.harness import _report_to_json

from util import blob_dataset, write_dataset_csv


@pytest.fixture()
def corpus(tmp_path):
    pa = tmp_path / "alpha.csv"
    pb = tmp_path / "beta.csv"
    write_dataset_csv(pa, blob_dataset(25, 10, seed=2))
    write_dataset_csv(pb, blob_dataset(24, 8, seed=5))
    return tmp_path, str(pa), str(pb)


def small_cfg(*paths, **over):
    base = dict(
        algorithms=("sfe", "bpso", "sfe_pso"),
        datasets=tuple(
            DatasetSpec(name=os.path.splitext(os.path.basename(p))[0], path=p)
            for p in paths
        ),
        runs=2,
        budget=60,
        folds=4,
        seed=3,
        hybrid=HybridParams(warmup_fes=30, stagnation_window=10, pso=PsoParams(pop_size=5)),
    )
    base.update(over)
    return ExperimentConfig(**base)


# bpso spends whole waves of particles, so a budget of 15 cannot pay for one
SHORT_OF_ONE_WAVE = HybridParams(warmup_fes=30, stagnation_window=10,
                                 pso=PsoParams(pop_size=20))


def strip_timing(obj):
    if isinstance(obj, dict):
        return {
            k: strip_timing(v)
            for k, v in obj.items()
            if k not in ("mean_time_s", "wall_time_s")
        }
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


# ------------------------------------------------------------------- seeds

def test_derive_seed_is_stable_and_spread():
    assert derive_seed(1, "sfe", "alpha", 0) == derive_seed(1, "sfe", "alpha", 0)
    seen = {
        derive_seed(s, algo, ds, r)
        for s in (1, 2)
        for algo in ("sfe", "bpso")
        for ds in ("alpha", "beta")
        for r in range(5)
    }
    assert len(seen) == 40
    assert all(0 <= s < 2**64 for s in seen)


# ------------------------------------------------------------------ config

def test_config_roundtrip(corpus, tmp_path):
    _, pa, pb = corpus
    cfg = small_cfg(pa, pb, reference="sfe", fixed_folds=True)
    path = tmp_path / "exp.ini"
    write_config(cfg, str(path))
    back = load_config(str(path))
    assert back == dataclasses.replace(cfg, out="")


# A config.ini snapshot in the format of every experiment directory written
# so far; `sfekit report` must keep reading those directories.
GOLDEN_SNAPSHOT = """\
[experiment]
algorithms = sfe, bpso, sfe_pso, sfe_ec:hillclimb
runs = 4
budget = 900
folds = 3
knn_k = 3
seed = 11
workers = 2
reference = sfe
fixed_folds = true
fold_mean = true

[sfe]
ur_max = 0.25
ur_min = 0.01
sn = 2
un_policy = linear_schedule
rf_n = 10
ur_denominator = max_fes

[pso]
pop_size = 7
w = 0.9
c1 = 1.75
c2 = 1.25
v_clamp = 4.0

[hybrid]
warmup_fes = 400
stagnation_window = 150

[dataset:alpha]
path = /data/alpha.csv
label_col = -1
header = false

[dataset:beta]
path = /data/beta.csv
label_col = cls
header = true

[dataset:gamma]
path = /data/gamma.csv
label_col = 0
header = false

"""


def test_config_snapshot_golden(tmp_path):
    ini = tmp_path / "config.ini"
    ini.write_text(GOLDEN_SNAPSHOT)
    cfg = load_config(str(ini))
    assert cfg.algorithms == ("sfe", "bpso", "sfe_pso", "sfe_ec:hillclimb")
    assert (cfg.knn_k, cfg.workers, cfg.reference, cfg.fixed_folds) == (3, 2, "sfe", True)
    assert cfg.hybrid.sfe.sn == 2 and cfg.hybrid.pso.v_clamp == 4.0
    assert cfg.datasets[1] == DatasetSpec("beta", "/data/beta.csv", "cls", True)
    back = tmp_path / "back.ini"
    write_config(cfg, str(back))
    # the retired [sfe] keys are read and ignored, and not written
    retired = "un_policy = linear_schedule\nrf_n = 10\nur_denominator = max_fes\n"
    assert back.read_text() == GOLDEN_SNAPSHOT.replace(retired, "")

    # a snapshot of the retired clearing schedule is refused, not rerun as another
    ini.write_text(GOLDEN_SNAPSHOT.replace("ur_denominator = max_fes", "ur_denominator = fes"))
    with pytest.raises(ConfigError, match=re.escape(str(ini)) +
                       r": \[sfe\] ur_denominator: 'fes' is no longer supported"):
        load_config(str(ini))

    # every default comes from the dataclasses
    ini.write_text("[dataset:a]\npath = a.csv\n")
    spec = DatasetSpec("a", str(tmp_path / "a.csv"))
    assert load_config(str(ini)) == ExperimentConfig(datasets=(spec,))


def test_readme_ini_example_loads(tmp_path):
    readme = Path(__file__).parent.parent.joinpath("README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    ini = tmp_path / "exp.ini"
    ini.write_text(block)
    cfg = load_config(str(ini))
    assert cfg.out  # the example sets every [experiment] key, out too
    listed = set(re.findall(r"^(\w+) =", block.split("\n[", 1)[0], re.M))
    keys = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"datasets", "hybrid"}
    assert listed == keys


def test_config_parses_all_sections(corpus, tmp_path):
    root, pa, _ = corpus
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[experiment]\n"
        "algorithms = sfe, sfe_ec:hillclimb\n"
        "runs = 4\nbudget = 90\nfolds = 3\nseed = 11\nfold_mean = yes\n"
        "[sfe]\nur_max = 0.25\nun_policy = linear_schedule\nrf_n = 3\n"
        "[pso]\npop_size = 7\nc2 = 1.25\n"
        "[hybrid]\nwarmup_fes = 40\nstagnation_window = 20\n"
        "[dataset:alpha]\npath = alpha.csv\n"
    )
    cfg = load_config(str(ini))
    assert cfg.algorithms == ("sfe", "sfe_ec:hillclimb")
    assert (cfg.runs, cfg.budget, cfg.folds, cfg.seed) == (4, 90, 3, 11)
    assert cfg.fold_mean and not cfg.fixed_folds
    assert cfg.hybrid.sfe == SfeParams(ur_max=0.25)
    assert cfg.hybrid.pso.pop_size == 7 and cfg.hybrid.pso.c2 == 1.25
    assert (cfg.hybrid.warmup_fes, cfg.hybrid.stagnation_window) == (40, 20)
    assert cfg.datasets[0].path == pa  # relative path resolved to the file


def test_config_rejects_unknown_keys(tmp_path, corpus):
    _, pa, _ = corpus
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[experiment]\nbudgett = 5\n[dataset:a]\npath = {pa}\n")
    with pytest.raises(ConfigError,
                       match=re.escape(str(ini)) + r": unknown key 'budgett' in \[experiment\]$"):
        load_config(str(ini))
    ini.write_text(f"[experiment]\nruns = 2\n[sfe]\nurmax = 0.3\n[dataset:a]\npath = {pa}\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(str(ini))
    # bad values are reported with the file and section they came from
    for body, where in [
        ("[sfe]\nsn = two\n", r"\[sfe\] sn: cannot parse 'two' as int"),
        ("[pso]\nw = fast\n", r"\[pso\] w: cannot parse 'fast' as float"),
        ("[experiment]\nalgorithms = sfe_ec:annealing\n",
         r"\[experiment\] algorithms: unknown continuation engine 'annealing'"),
        ("[hybrid]\nwarmup_fes = 10\nstagnation_window = 10\n",
         r"\[hybrid\] warmup_fes must exceed stagnation_window"),
        ("[hybrid]\nwindow = 3\n", r"unknown key 'window' in \[hybrid\]"),
        ("[experiment]\nfixed_folds = maybe\n",
         r"\[experiment\] fixed_folds: cannot parse 'maybe' as bool"),
        ("[experiment]\nruns = two\n", r"\[experiment\] runs: cannot parse 'two' as int"),
        ("[dataset:b]\npath = b.csv\nheader = sure\n",
         r"\[dataset:b\] header: cannot parse 'sure' as bool"),
        ("[DEFAULT]\nruns = 3\n", r"\[DEFAULT\] is not supported"),
        # the retired policy is refused, not rerun as the linear schedule
        ("[sfe]\nun_policy = random_fraction\n",
         r"\[sfe\] un_policy: 'random_fraction' is no longer supported; "
         r"only 'linear_schedule' is$"),
        ("[experiment]\nruns = 0\n", r"\[experiment\] runs must be at least 1"),
        # malformed INI files are configuration errors, not tracebacks
        ("[experiment]\nruns = 2\nruns = 3\n",
         r"not a valid INI file: .*option 'runs' in section 'experiment' already exists"),
        ("[dataset:a]\npath = a.csv\n",
         r"not a valid INI file: .*section 'dataset:a' already exists"),
        ("runs = 3\n", r"not a valid INI file: File contains no section headers"),
    ]:
        ini.write_text(body + f"[dataset:a]\npath = {pa}\n")
        with pytest.raises(ConfigError, match=re.escape(str(ini)) + ": " + where):
            load_config(str(ini))


def test_validate_catches_bad_matrices(corpus, tmp_path):
    _, pa, _ = corpus
    with pytest.raises(ConfigError, match="unknown algorithm"):
        small_cfg(pa, algorithms=("sfe", "genetic"))
    with pytest.raises(ConfigError, match="duplicate algorithm"):
        small_cfg(pa, algorithms=("sfe", "sfe"))
    with pytest.raises(ConfigError, match="no datasets"):
        small_cfg()
    with pytest.raises(ConfigError, match="reference"):
        small_cfg(pa, reference="bpso", algorithms=("sfe",))
    with pytest.raises(ConfigError, match="folds"):
        small_cfg(pa, folds=1)
    for engine in ("annealing", "identity"):
        with pytest.raises(ConfigError, match="unknown continuation engine"):
            small_cfg(pa, algorithms=(f"sfe_ec:{engine}",))
    small_cfg(pa, algorithms=("sfe_ec:hillclimb",))  # engine names resolve
    # refused when built, so no run can write config.ini or run files first
    with pytest.raises(ConfigError, match="^runs must be at least 1$"):
        small_cfg(pa, runs=0)
    with pytest.raises(ConfigError, match="^budget must be at least 1$"):
        dataclasses.replace(small_cfg(pa), budget=0)
    # a missing dataset file is found where the run opens it, before any write
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="^dataset 'alpha': file not found: " +
                       re.escape(pa + ".missing") + "$"):
        run_experiment(small_cfg(pa, datasets=(DatasetSpec("alpha", pa + ".missing"),)),
                       str(out))
    assert not out.exists()


# ---------------------------------------------------------------- running

def test_run_experiment_produces_full_outputs(corpus, tmp_path):
    _, pa, pb = corpus
    cfg = small_cfg(pa, pb)
    out = tmp_path / "out"
    report = run_experiment(cfg, str(out))

    assert report.reference == "sfe_pso"
    assert sorted(report.cells) == sorted(
        (a, d) for a in cfg.algorithms for d in ("alpha", "beta")
    )
    for stats in report.cells.values():
        assert stats.n_runs == 2 and stats.n_failed == 0
        assert stats.worst <= stats.mean <= stats.best
    # two non-reference algorithms on two datasets, each with >= 2 runs
    assert len(report.marks) == 4
    assert set(report.friedman) == set(cfg.algorithms)
    assert report.failures == []

    assert (out / "config.ini").is_file()
    assert (out / "report.json").is_file()
    assert (out / "report.txt").is_file()
    for d in ("alpha", "beta"):
        for a in cfg.algorithms:
            for r in range(2):
                assert (out / "runs" / d / a / f"run_{r:04d}.jsonl").is_file()

    text = format_report(report)
    assert "alpha" in text and "beta" in text and "ref" in text
    payload = json.loads((out / "report.json").read_text())
    assert payload["cells"]["sfe"]["alpha"]["n_runs"] == 2


def test_run_jsonl_records_meta_trace_final(corpus, tmp_path):
    _, pa, _ = corpus
    cfg = small_cfg(pa, algorithms=("sfe",), runs=1)
    out = tmp_path / "out"
    run_experiment(cfg, str(out))
    lines = (out / "runs" / "alpha" / "sfe" / "run_0000.jsonl").read_text().splitlines()
    meta, trace, final = (json.loads(x) for x in lines)
    assert list(meta) == ["type", "schema", "algorithm", "dataset", "run_index", "seed",
                          "fold_seed", "budget", "folds", "knn_k", "fold_mean"]
    assert list(trace) == ["type", "fes", "best", "nsel"]
    assert list(final) == ["type", "ok", "error", "accuracy", "n_selected",
                           "selected_features", "wall_time_s", "handoff_fes"]
    assert meta["type"] == "meta" and meta["schema"] == 1 and meta["budget"] == 60
    assert meta["seed"] == derive_seed(3, "sfe", "alpha", 0)
    assert trace["type"] == "trace"
    assert trace["fes"] == list(range(1, 61))
    assert len(trace["best"]) == 60 and len(trace["nsel"]) == 60
    assert final["type"] == "final" and final["ok"]
    assert final["n_selected"] == len(final["selected_features"])

    # a budget short of one particle wave fails the run: meta and final, no trace
    bad = tmp_path / "bad"
    run_experiment(small_cfg(pa, algorithms=("bpso",), runs=1, budget=15,
                             hybrid=SHORT_OF_ONE_WAVE), str(bad))
    lines = (bad / "runs" / "alpha" / "bpso" / "run_0000.jsonl").read_text().splitlines()
    assert [json.loads(x)["type"] for x in lines] == ["meta", "final"]
    assert '"accuracy": null' in lines[1]
    final = json.loads(lines[1])
    assert not final["ok"] and final["error"].startswith(
        "ValueError: budget remainder 15 cannot cover one wave of 20 particles")
    (res,) = load_runs(str(bad))
    assert not res.ok and np.isnan(res.accuracy) and res.trace_fes == []

    # k above the training split size fits no run: the matrix is refused unwritten
    infeasible = tmp_path / "infeasible"
    with pytest.raises(ConfigError, match=r"^dataset 'alpha': knn_k=25 exceeds the "
                                          r"smallest training split \(18\)$"):
        run_experiment(small_cfg(pa, algorithms=("sfe",), runs=1, knn_k=25), str(infeasible))
    assert not infeasible.exists()


def test_rerun_is_identical_except_timing(corpus, tmp_path):
    _, pa, _ = corpus
    cfg = small_cfg(pa, algorithms=("sfe", "sfe_pso"))
    rep1 = run_experiment(cfg, str(tmp_path / "one"))
    rep2 = run_experiment(cfg, str(tmp_path / "two"))
    assert strip_timing(_report_to_json(rep1)) == strip_timing(_report_to_json(rep2))
    for d, a, r in [("alpha", x, i) for x in cfg.algorithms for i in range(2)]:
        f1 = (tmp_path / "one" / "runs" / d / a / f"run_{r:04d}.jsonl").read_text()
        f2 = (tmp_path / "two" / "runs" / d / a / f"run_{r:04d}.jsonl").read_text()
        recs1 = [strip_timing(json.loads(x)) for x in f1.splitlines()]
        recs2 = [strip_timing(json.loads(x)) for x in f2.splitlines()]
        assert recs1 == recs2


def test_worker_pool_matches_serial_run(corpus, tmp_path):
    _, pa, _ = corpus
    serial = small_cfg(pa, algorithms=("sfe", "bpso"), budget=40)
    pooled = dataclasses.replace(serial, workers=2)
    rep1 = run_experiment(serial, str(tmp_path / "serial"))
    rep2 = run_experiment(pooled, str(tmp_path / "pooled"))
    assert strip_timing(_report_to_json(rep1)) == strip_timing(_report_to_json(rep2))


def test_report_roundtrips_through_persisted_runs(corpus, tmp_path):
    _, pa, pb = corpus
    cfg = small_cfg(pa, pb)
    out = tmp_path / "out"
    rep1 = run_experiment(cfg, str(out))
    rep2 = build_report(cfg, load_runs(str(out)))
    assert _report_to_json(rep1) == _report_to_json(rep2)


def test_fold_seed_policy(corpus, tmp_path):
    _, pa, _ = corpus

    def fold_seeds(cfg, out):
        run_experiment(cfg, str(out))
        seeds = []
        for res in load_runs(str(out)):
            seeds.append(res.fold_seed)
        return seeds

    per_run = fold_seeds(small_cfg(pa, algorithms=("sfe",), runs=3, budget=20),
                         tmp_path / "per_run")
    assert len(set(per_run)) == 3
    shared = fold_seeds(
        small_cfg(pa, algorithms=("sfe", "bpso"), runs=3, budget=20, fixed_folds=True),
        tmp_path / "shared",
    )
    assert len(set(shared)) == 1


def test_failed_runs_are_recorded_not_fatal(corpus, tmp_path):
    # every bpso run fails on its own; the sfe runs beside them complete
    _, pa, pb = corpus
    cfg = small_cfg(pa, pb, algorithms=("sfe", "bpso"), budget=15, hybrid=SHORT_OF_ONE_WAVE)
    out = tmp_path / "out"
    report = run_experiment(cfg, str(out))
    assert len(report.failures) == 4  # bpso on 2 datasets x 2 runs
    assert all("budget remainder 15 cannot cover one wave of 20 particles" in f["error"]
               for f in report.failures)
    for (algorithm, _), stats in report.cells.items():
        if algorithm == "bpso":
            assert stats.n_runs == 0 and stats.n_failed == 2
            assert np.isnan(stats.mean)
        else:
            assert stats.n_runs == 2 and stats.n_failed == 0
    assert report.friedman == {} and report.marks == {}
    # the failure is visible in the persisted record and the text report
    rec = (out / "runs" / "alpha" / "bpso" / "run_0000.jsonl").read_text()
    assert '"ok": false' in rec
    assert "failed run(s)" in format_report(report)

    # a single-instance class makes the CV split impossible for every run,
    # so the matrix is refused once, before anything is written
    rows = ["1.0,2.0,0", "2.0,1.0,0", "3.0,4.0,0", "4.0,3.0,0", "5.0,6.0,1"]
    csv = tmp_path / "lonely.csv"
    csv.write_text("\n".join(rows) + "\n")
    out = tmp_path / "lonely"
    with pytest.raises(ConfigError, match="^dataset 'lonely': class 1 has a single instance"):
        run_experiment(small_cfg(str(csv), algorithms=("sfe", "bpso"), folds=2, budget=20),
                       str(out))
    assert not out.exists()


def test_report_json_writes_null_for_a_cell_without_runs(corpus, tmp_path):
    _, pa, _ = corpus
    cfg = small_cfg(pa, algorithms=("sfe", "bpso"), budget=15, hybrid=SHORT_OF_ONE_WAVE)
    out = tmp_path / "out"
    run_experiment(cfg, str(out))

    def refuse(name):
        raise ValueError(f"report.json holds a bare {name}")

    payload = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    cell = payload["cells"]["bpso"]["alpha"]
    assert (cell["n_runs"], cell["n_failed"]) == (0, 2)
    for key in ("worst", "best", "mean", "std", "mean_selected", "mean_time_s"):
        assert cell[key] is None
    assert payload["cells"]["sfe"]["alpha"]["mean"] > 0
    # the text report still shows the empty cell as nan
    assert re.search(r"alpha\s+bpso\s+0 \(2 failed\)\s+nan", (out / "report.txt").read_text())


def test_run_files_are_written_atomically(corpus, tmp_path, monkeypatch):
    _, pa, _ = corpus
    cfg = small_cfg(pa, algorithms=("sfe",), runs=1, budget=20)
    dumps = json.dumps

    def fail_on_final(obj, *args, **kwargs):
        if isinstance(obj, dict) and obj.get("type") == "final":
            raise OSError("disk full")
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", fail_on_final)
    out = tmp_path / "out"
    with pytest.raises(OSError, match="disk full"):
        run_experiment(cfg, str(out))
    # the meta and trace lines were written, but never under the run's name
    assert not (out / "runs" / "alpha" / "sfe" / "run_0000.jsonl").exists()

    monkeypatch.undo()
    run_experiment(cfg, str(tmp_path / "ok"))
    assert os.listdir(tmp_path / "ok" / "runs" / "alpha" / "sfe") == ["run_0000.jsonl"]


def test_dataset_names_sharing_a_run_file_are_refused(corpus, tmp_path):
    _, pa, pb = corpus
    cfg = small_cfg(algorithms=("sfe",), runs=1, budget=20,
                    datasets=(DatasetSpec("x y", pa), DatasetSpec("x-y", pb)))
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=r"^datasets 'x y' and 'x-y' share the run file "
                                          r".*run_0000\.jsonl; rename one$"):
        run_experiment(cfg, str(out))
    assert not out.exists()


def test_load_runs_refuses_bad_run_files(corpus, tmp_path):
    _, pa, _ = corpus
    out = tmp_path / "out"
    run_experiment(small_cfg(pa, algorithms=("sfe",), runs=2, budget=20), str(out))
    path = out / "runs" / "alpha" / "sfe" / "run_0001.jsonl"
    meta, trace, final = path.read_text().splitlines()
    full = json.loads(trace)
    gap = {k: (v if k == "type" else v[:5] + v[6:]) for k, v in full.items()}
    short = dict(full, nsel=full["nsel"][:-1])
    for bad in (gap, short):
        path.write_text("\n".join([meta, json.dumps(bad), final]) + "\n")
        for read in (lambda: load_runs(str(out)),
                     lambda: emit_convergence(str(out), str(tmp_path / "curves"))):
            with pytest.raises(ValueError, match=re.escape(f"{path}: the trace must hold fes")):
                read()
    path.unlink()
    with pytest.raises(FileNotFoundError, match=re.escape(str(path))):
        load_runs(str(out))


def test_load_runs_names_a_run_file_that_is_not_json(corpus, tmp_path, capsys):
    _, pa, _ = corpus
    out = tmp_path / "out"
    run_experiment(small_cfg(pa, algorithms=("sfe",), runs=1, budget=20), str(out))
    path = out / "runs" / "alpha" / "sfe" / "run_0000.jsonl"
    text = path.read_text()
    cut = text[: len(text) // 2]
    path.write_text(cut)
    lineno = cut.count("\n") + 1
    with pytest.raises(ValueError, match=re.escape(f"{path}: line {lineno} is not valid JSON: ")):
        load_runs(str(out))
    capsys.readouterr()
    assert main(["report", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: line {lineno} is not valid JSON")


# ------------------------------------------------------------- convergence

def test_emit_convergence_curves(corpus, tmp_path):
    _, pa, _ = corpus
    cfg = small_cfg(pa, algorithms=("sfe", "bpso"), runs=3, budget=40)
    out = tmp_path / "out"
    run_experiment(cfg, str(out))
    dest = tmp_path / "curves"
    written = emit_convergence(str(out), str(dest))
    assert sorted(os.path.basename(p) for p in written) == [
        "alpha__bpso.csv", "alpha__sfe.csv",
    ]
    for path in written:
        lines = Path(path).read_text().splitlines()
        assert lines[0] == "fes,mean_best_accuracy,mean_selected"
        body = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in body] == list(range(1, len(body) + 1))
        acc = [float(r[1]) for r in body]
        assert all(a <= b for a, b in zip(acc, acc[1:]))
        assert all(np.isfinite(float(r[2])) for r in body)
    assert len(Path(written[1]).read_text().splitlines()) == 41  # sfe spends all 40


# --------------------------------------------------------------------- cli

def write_ini(tmp_path, pa, pb=None):
    extra = "[dataset:beta]\npath = beta.csv\n" if pb else ""
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[experiment]\n"
        "algorithms = sfe, bpso\n"
        "runs = 2\nbudget = 40\nfolds = 4\nseed = 3\n"
        "[pso]\npop_size = 5\n"
        "[hybrid]\nwarmup_fes = 30\nstagnation_window = 10\n"
        "[dataset:alpha]\npath = alpha.csv\n" + extra
    )
    return str(ini)


def test_cli_run_report_converge(corpus, tmp_path, capsys):
    root, pa, pb = corpus
    ini = write_ini(root, pa, pb)
    out = str(tmp_path / "out")

    assert main(["run", "--config", ini, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "alpha" in printed and "report.json" in printed
    assert os.path.isfile(os.path.join(out, "report.txt"))

    assert main(["report", out]) == 0
    assert "alpha" in capsys.readouterr().out

    dest = str(tmp_path / "curves")
    assert main(["converge", out, "--out", dest]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert len(listed) == 4 and all(p.endswith(".csv") for p in listed)


def test_cli_refuses_dirty_out_dir(corpus, tmp_path, capsys):
    root, pa, _ = corpus
    ini = write_ini(root, pa)
    out = str(tmp_path / "out")
    assert main(["run", "--config", ini, "--out", out, "--runs", "1"]) == 0
    capsys.readouterr()
    assert main(["run", "--config", ini, "--out", out, "--runs", "1"]) == 2
    assert "not empty" in capsys.readouterr().err
    assert main(["run", "--config", ini, "--out", out, "--runs", "1", "--force"]) == 0


def test_cli_refuses_an_out_path_that_is_a_file(corpus, tmp_path, capsys):
    root, pa, _ = corpus
    ini = write_ini(root, pa)
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    for out, reason in [(taken, "File exists"), (taken / "sub", "Not a directory")]:
        for force in ([], ["--force"]):
            assert main(["run", "--config", ini, "--out", str(out), "--runs", "1",
                         *force]) == 2
            assert capsys.readouterr().err == (
                f"error: cannot create output directory {out}: {reason}\n")
    assert taken.read_text() == "keep\n"


def test_cli_algo_and_dataset_filters(corpus, tmp_path, capsys):
    root, pa, pb = corpus
    ini = write_ini(root, pa, pb)
    out = str(tmp_path / "out")
    assert main(["run", "--config", ini, "--out", out,
                 "--algo", "sfe", "--dataset", "beta"]) == 0
    payload = json.loads(Path(out, "report.json").read_text())
    assert payload["algorithms"] == ["sfe"]
    assert payload["datasets"] == ["beta"]


def test_cli_adhoc_csv_dataset(corpus, tmp_path, capsys):
    root, pa, _ = corpus
    extra = tmp_path / "extra.csv"
    write_dataset_csv(extra, blob_dataset(20, 6, seed=9))
    ini = write_ini(root, pa)
    out = str(tmp_path / "out")
    assert main(["run", "--config", ini, "--out", out, "--algo", "sfe",
                 "--dataset", str(extra)]) == 0
    payload = json.loads(Path(out, "report.json").read_text())
    assert payload["datasets"] == ["extra"]

    # config.ini strips section names, so the ad-hoc name is stripped as well
    write_dataset_csv(tmp_path / " padded.csv", blob_dataset(20, 6, seed=9))
    out = str(tmp_path / "out_padded")
    assert main(["run", "--config", ini, "--out", out, "--algo", "sfe", "--runs", "1",
                 "--dataset", str(tmp_path / " padded.csv")]) == 0
    capsys.readouterr()
    assert main(["report", out]) == 0
    assert re.search(r"^padded +sfe +1 ", capsys.readouterr().out, re.M)

    # load_csv strips the header cells, so the label name is stripped too
    headed = tmp_path / "headed.csv"
    write_dataset_csv(headed, blob_dataset(20, 6, seed=9), label_last=False)
    body = headed.read_text()
    headed.write_text("cls," + ",".join(f"f{j}" for j in range(6)) + "\n" + body)
    out = str(tmp_path / "out_headed")
    assert main(["run", "--config", ini, "--out", out, "--algo", "sfe", "--runs", "1",
                 "--dataset", str(headed), "--header", "--label-col", " cls"]) == 0
    config = load_config(os.path.join(out, "config.ini"))
    assert config.datasets == (DatasetSpec("headed", str(headed), "cls", True),)


def test_cli_error_paths(corpus, tmp_path, capsys):
    root, pa, _ = corpus
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[experiment]\nalgorithms = genetic\n[dataset:a]\npath = {pa}\n")
    assert main(["run", "--config", str(bad)]) == 2
    assert "unknown algorithm" in capsys.readouterr().err
    assert main(["report", str(tmp_path / "nowhere")]) == 2
    assert main(["run", "--config", write_ini(root, pa), "--out",
                 str(tmp_path / "o"), "--dataset", "nosuchname"]) == 2


def test_cli_runs_selected_datasets_while_another_file_is_missing(corpus, tmp_path, capsys):
    root, pa, _ = corpus
    ini = write_ini(root, pa)
    with open(ini, "a") as fh:
        fh.write("[dataset:gone]\npath = gone.csv\n")
    out = str(tmp_path / "out")
    assert main(["run", "--config", ini, "--out", out, "--runs", "1",
                 "--dataset", "alpha"]) == 0
    assert json.loads(Path(out, "report.json").read_text())["datasets"] == ["alpha"]
    capsys.readouterr()
    # the full matrix opens the missing file, and is refused before any write
    whole = str(tmp_path / "whole")
    assert main(["run", "--config", ini, "--out", whole, "--runs", "1"]) == 2
    assert capsys.readouterr().err == (
        f"error: dataset 'gone': file not found: {os.path.join(root, 'gone.csv')}\n")
    assert not os.path.exists(whole)


def test_cli_failure_exit_code(corpus, tmp_path, capsys):
    _, pa, _ = corpus
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[experiment]\nalgorithms = bpso\nruns = 1\nbudget = 15\nfolds = 2\n"
        "[pso]\npop_size = 20\n"
        f"[dataset:alpha]\npath = {pa}\n"
    )
    assert main(["run", "--config", str(ini), "--out", str(tmp_path / "out")]) == 1

    # a split that no run can make is a configuration error, and writes nothing
    rows = ["1.0,2.0,0", "2.0,1.0,0", "3.0,4.0,0", "4.0,3.0,0", "5.0,6.0,1"]
    (tmp_path / "lonely.csv").write_text("\n".join(rows) + "\n")
    ini.write_text(
        "[experiment]\nalgorithms = sfe\nruns = 1\nbudget = 10\nfolds = 2\n"
        "[dataset:lonely]\npath = lonely.csv\n"
    )
    capsys.readouterr()
    assert main(["run", "--config", str(ini), "--out", str(tmp_path / "lonely")]) == 2
    assert "dataset 'lonely': class 1 has a single instance" in capsys.readouterr().err
    assert not (tmp_path / "lonely").exists()


def test_cli_refuses_a_header_of_another_width(corpus, tmp_path, capsys):
    root, pa, _ = corpus
    headed = tmp_path / "headed.csv"
    headed.write_text("f1,f2,f3,cls\n1,2,7\n3,4,8\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["run", "--config", write_ini(root, pa), "--out", str(out), "--algo", "sfe",
                 "--dataset", str(headed), "--header", "--label-col", "cls"]) == 2
    assert capsys.readouterr().err == (
        f"error: {headed}: header has 4 columns but the data rows have 3\n")
    assert not out.exists()


def test_cli_report_and_converge_read_only_the_configured_runs(corpus, tmp_path, capsys):
    root, pa, pb = corpus
    ini = write_ini(root, pa, pb)
    out = str(tmp_path / "out")
    assert main(["run", "--config", ini, "--out", out, "--runs", "3"]) == 0
    assert main(["run", "--config", ini, "--out", out, "--force",
                 "--runs", "2", "--algo", "sfe"]) == 0
    capsys.readouterr()
    # the first matrix's run files stay on disk, but the snapshot no longer names them
    assert os.path.isfile(os.path.join(out, "runs", "alpha", "sfe", "run_0002.jsonl"))
    assert os.path.isfile(os.path.join(out, "runs", "alpha", "bpso", "run_0000.jsonl"))

    assert main(["report", out]) == 0
    printed = capsys.readouterr().out
    assert printed == (tmp_path / "out" / "report.txt").read_text()
    assert "bpso" not in printed
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["cells"]["sfe"]["alpha"]["n_runs"] == 2

    dest = str(tmp_path / "curves")
    assert main(["converge", out, "--out", dest]) == 0
    assert sorted(os.listdir(dest)) == ["alpha__sfe.csv", "beta__sfe.csv"]


def test_report_refuses_run_files_from_another_experiment(corpus, tmp_path, capsys):
    root, pa, _ = corpus
    ini = write_ini(root, pa)
    out = tmp_path / "out"
    assert main(["run", "--config", ini, "--out", str(out), "--budget", "60"]) == 0
    path = out / "runs" / "alpha" / "sfe" / "run_0001.jsonl"
    old = path.read_text()
    assert main(["run", "--config", ini, "--out", str(out), "--force", "--budget", "40"]) == 0
    path.write_text(old)  # a budget-60 run among the budget-40 ones
    capsys.readouterr()
    assert main(["report", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {path}: meta budget is 60 but config.ini "
                                       "gives 40; the file is from another experiment\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: meta budget is 60")):
        load_runs(str(out))


def test_cli_default_out_dir_env(corpus, tmp_path, capsys, monkeypatch):
    root, pa, _ = corpus
    monkeypatch.setenv("SFEKIT_OUT", str(tmp_path / "envroot"))
    ini = write_ini(root, pa)
    assert main(["run", "--config", ini, "--runs", "1", "--algo", "sfe"]) == 0
    assert os.path.isfile(str(tmp_path / "envroot" / "exp" / "report.json"))


def test_console_script_entry_point(corpus, tmp_path):
    root, pa, _ = corpus
    ini = write_ini(root, pa)
    out = str(tmp_path / "out")
    # the child imports the sfekit under test, whether installed or not
    src = os.path.dirname(os.path.dirname(sfekit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sfekit.cli", "run", "--config", ini,
         "--out", out, "--runs", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "report.json" in proc.stdout
