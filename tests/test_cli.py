"""CLI: config resolution, report rendering, subcommands, exit codes."""

import json
import os
import re
import stat
import struct
import zlib
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
import yaml

from onlinekd import cli, labelstore
from onlinekd.cli import (
    build_config,
    build_report,
    config_digest,
    default_experiment,
    load_config,
    main,
)
from onlinekd.errors import (
    ConfigError,
    DivergenceError,
    SchemaError,
    StoreCorruptionError,
)
from onlinekd.labelstore import LabelStore, MANIFEST_NAME, SegmentWriter
from onlinekd.metrics import OnlineSimConfig
from onlinekd.nncore import AdamConfig
from onlinekd.pipeline import (
    ExperimentConfig,
    FAMILIES,
    FAMILY_CUSTOM,
    FAMILY_DISTILL,
    FAMILY_OBJECTIVE,
    FAMILY_SCALE,
    JOB_LEVEL_TASK,
    MetricRow,
    build_runs,
    make_teacher_job,
    read_metrics_csv,
    split_job_name,
    write_metrics_csv,
)
from onlinekd.ranker import AUXILIARY, BINARY, NO_DISTILL

from oracles import LOG_HEADER, log_records, segment_body


def test_default_experiment_covers_every_family():
    for family in FAMILIES:
        cfg = default_experiment(family, (0, 1))
        assert cfg.family == family
        assert cfg.seeds == (0, 1)
        build_runs(cfg)  # expands without error
    with pytest.raises(ConfigError, match="unknown family"):
        default_experiment("nope", (0,))


def test_parse_seed_list():
    assert cli._parse_seed_list("0,1,2") == (0, 1, 2)
    assert cli._parse_seed_list("0-3") == (0, 1, 2, 3)
    assert cli._parse_seed_list("7") == (7,)
    assert cli._parse_seed_list("0-1,5") == (0, 1, 5)
    with pytest.raises(ConfigError, match="bad seed range"):
        cli._parse_seed_list("5-2")
    with pytest.raises(ConfigError, match="empty"):
        cli._parse_seed_list(",")
    # a repeated seed is the config's to refuse, as it is from the YAML
    assert cli._parse_seed_list("1,1") == (1, 1)
    with pytest.raises(ConfigError, match="duplicate seeds"):
        build_config({"family": FAMILY_CUSTOM}, cli._parse_seed_list("1,1"))
    for text in ("abc", "1-", "0,x"):
        with pytest.raises(ConfigError, match="bad seed"):
            cli._parse_seed_list(text)


def test_build_config_minimal_uses_family_defaults():
    cfg = build_config({"family": FAMILY_DISTILL})
    assert cfg.seeds == tuple(range(10))
    assert cfg.distill_tasks == ("ltv",)
    assert cfg.bias == {"ltv": 1.3}
    assert cfg.schedule.total_steps == 3000


def test_build_config_overrides_and_merging():
    raw = {
        "family": "custom",
        "seeds": [0, 1],
        "stream": {
            "feature_dim": 8,
            "drift_rate": 0.99,
            "tasks": [
                {"name": "ctr", "kind": "binary", "category": "pet"},
                {"name": "spend", "kind": "regression"},
            ],
        },
        "schedule": {
            "total_steps": 12,
            "batch_size": 16,
            "online_sim": {"slate_size": 4, "n_slates": 50, "satisfaction_task": "spend"},
        },
        "model": {"teacher_trunk": [10], "student_trunk": [8], "tower": [5]},
        "training": {
            "teacher": {
                "base_lr": 0.05,
                "warmup_steps": 0,
                "adam": {"beta1": 0.8, "epsilon": 1e-9},
            },
            "student": {"clippy": None, "activation_clip": None},
        },
        "teacher": {"bias": {"spend": 2.0}, "write_every": 2},
        "students": [
            {"name": "control", "mode": "none"},
            {"name": "aux", "mode": "auxiliary", "distill": ["ctr"], "alpha": {"ctr": 0.25}},
        ],
    }
    cfg = build_config(raw)
    assert cfg.gen.feature_dim == 8
    assert cfg.gen.drift_rate == 0.99
    assert [t.name for t in cfg.gen.tasks] == ["ctr", "spend"]
    assert cfg.gen.tasks[0].category == "pet"
    assert cfg.gen.tasks[1].kind == "regression"
    assert cfg.schedule.total_steps == 12
    assert cfg.schedule.online_sim.slate_size == 4
    assert cfg.schedule.online_sim.satisfaction_task == "spend"
    assert cfg.teacher_trunk == (10,)
    assert cfg.teacher_train.base_lr == 0.05
    assert cfg.teacher_train.adam.beta1 == 0.8
    assert cfg.teacher_train.adam.epsilon == 1e-9
    assert cfg.teacher_train.adam.beta2 == 0.999  # untouched default
    assert cfg.student_train.clippy is None
    assert cfg.student_train.activation_clip is None
    assert cfg.bias == {"spend": 2.0}
    assert cfg.write_every == 2
    assert cfg.students[0].mode == NO_DISTILL
    assert cfg.students[1].mode == AUXILIARY
    # the deleted teacher.label_delay knob is an unknown key
    raw["teacher"]["label_delay"] = 1
    with pytest.raises(ConfigError, match="unknown keys under teacher: label_delay"):
        build_config(raw)


def test_build_config_partial_mappings_keep_family_values():
    cfg = build_config({
        "family": FAMILY_SCALE,
        "schedule": {"online_sim": {"slate_size": 4}},
        "training": {"teacher": {"adam": {"epsilon": "1e-9"}}},
    })
    # the family tunes n_slates to 3000; naming slate_size alone keeps it
    assert cfg.schedule.online_sim == OnlineSimConfig(slate_size=4, n_slates=3000)
    # PyYAML reads 1e-9 (no dot) as a string; it is still a float
    assert yaml.safe_load("epsilon: 1e-9") == {"epsilon": "1e-9"}
    assert cfg.teacher_train.adam == AdamConfig(epsilon=1e-9)
    assert cfg.teacher_train.base_lr == 0.02


# (overrides of the custom family unless they name another, the YAML path
# its error must name)
STUDENT = {"name": "s", "mode": "auxiliary", "distill": ["ctr"]}


def ctr_and_sat(category):
    return {"tasks": [{"name": n, "kind": "binary", "category": category} for n in ("ctr", "sat")]}


# each once exited 1 only after `onlinekd run` had made the output
# directory, with an error that named no key
LATE_FAILURES = [
    ({"teacher": {"write_every": 0}}, "teacher.write_every"),
    ({"teacher": {"bias": {"ctr": 1.3}}}, "teacher.bias"),
    ({"family": FAMILY_DISTILL, "distill": {"tasks": []}}, "distill.tasks"),
    ({"family": FAMILY_SCALE, "distill": {"tasks": []}}, "distill.tasks"),
    ({"family": FAMILY_OBJECTIVE, "stream": ctr_and_sat("pst")}, "stream.tasks"),  # no PET task
    ({"family": FAMILY_OBJECTIVE, "stream": ctr_and_sat("pet")}, "stream.tasks"),  # no PST task
    ({"students": []}, "students"),
]
BAD_VALUES = [
    ({"schedule": {"durable_store": "no"}}, "schedule.durable_store"),
    ({"schedule": {"total_steps": 12.7}}, "schedule.total_steps"),
    ({"schedule": {"total_steps": "abc"}}, "schedule.total_steps"),
    ({"teacher": {"write_every": 2.9}}, "teacher.write_every"),
    ({"training": {"teacher": {"base_lr": -1}}}, "training.teacher"),
    ({"training": {"student": {"clippy": {"sigma_rel": -1}}}}, "training.student.clippy"),
    ({"schedule": {"online_sim": {"slate_size": 1}}}, "schedule.online_sim"),
    ({"schedule": {"online_sim": {"policy_task": "nope"}}}, "schedule.online_sim"),
    ({"schedule": {"online_sim": {"satisfaction_task": "nope"}}}, "schedule.online_sim"),
    ({"stream": 5}, "stream"),
    ({"students": 5}, "students"),
    ({"training": {"teacher": {"adam": None}}}, "training.teacher.adam"),
    # over tasks c, t and r a bare string once split into three tasks
    ({"family": FAMILY_DISTILL,
      "stream": {"tasks": [{"name": n, "kind": "binary"} for n in "ctr"]},
      "distill": {"tasks": "ctr"}}, "distill.tasks"),
    ({"students": [{**STUDENT, "alpha": {"ctr": "x"}}]}, "students[0].alpha.ctr"),
    # once widened the student's trunk; no key sets a student's width now
    ({"students": [{**STUDENT, "scale": 2}]}, "students[0]"),
    # each once exited 1 only after the output directory was made, naming no key
    ({"students": [STUDENT, STUDENT]}, "students[1]"),
    ({"students": [{**STUDENT, "name": "teacher"}]}, "students[0]"),
    ({"students": [{**STUDENT, "distill": ["nope"]}]}, "students[0]"),
    ({"students": [{**STUDENT, "distill": ["ctr", "ctr"]}]}, "students[0]"),
    ({"students": [{**STUDENT, "alpha": {"ltv": 0.5}}]}, "students[0]"),
    ({"teacher": {"freeze_at": "soon"}}, "teacher.freeze_at"),
    ({"seeds": [-1]}, "seeds"),
    ({"model": {"teacher_scales": [1, 2]}}, "model.teacher_scales"),
    # two runs named t2x once shared one store and died with a StoreError
    ({"family": FAMILY_SCALE, "model": {"teacher_scales": [2, 2]}}, "model.teacher_scales"),
    # widths below 1 once crashed in the model build (ZeroDivisionError,
    # negative dimensions) after the output directory was made
    ({"model": {"student_trunk": [0]}}, "model.student_trunk"),
    ({"model": {"tower": [-3]}}, "model.tower"),
    ({"family": FAMILY_SCALE, "model": {"teacher_trunk": [0, 3]}}, "model.teacher_trunk"),
    # once accepted: -1 acted as 0, -5 froze the teacher before its first step
    ({"schedule": {"online_sim_every": -1}}, "schedule"),
    ({"teacher": {"freeze_at": -5}}, "teacher.freeze_at"),
    *LATE_FAILURES,
]


# (a key of _YAML_FIELDS that build_runs or make_teacher_job reads, a value
# unlike every family default, the families that read it); the other keys
# reach the stream, the models and the loop the same way in every family
RUN_KEYS = [
    ("model.teacher_scales", [3], FAMILIES),
    ("distill.mode", "direct", (FAMILY_SCALE, FAMILY_OBJECTIVE)),
    ("distill.tasks", ["sat"], (FAMILY_DISTILL, FAMILY_SCALE)),
    ("distill.alpha", {"ctr": 0.5, "ltv": 0.5}, (FAMILY_DISTILL, FAMILY_SCALE, FAMILY_OBJECTIVE)),
    ("teacher.bias", {"ltv": 1.5}, FAMILIES),
    ("teacher.freeze_at", 7, FAMILIES),
    ("teacher.write_every", 3, FAMILIES),
    ("students", [{"name": "pupil", "mode": "direct", "distill": ["ltv"]}], (FAMILY_CUSTOM,)),
]
SHARED_KEYS = {
    "family", "seeds", "stream", "schedule", "model.teacher_trunk", "model.student_trunk",
    "model.tower", "training.teacher", "training.student",
}


def yaml_paths(table, prefix=""):
    for key, name in table.items():
        if isinstance(name, dict):
            yield from yaml_paths(name, f"{prefix}{key}.")
        else:
            yield prefix + key


def built_runs(cfg):
    """cfg's runs, and the settings each run's teacher takes from cfg."""
    runs = build_runs(cfg)
    teachers = [make_teacher_job(cfg, run.teacher, 0) for run in runs]
    return runs, [(t.bias, t.freeze_at, t.write_every) for t in teachers]


def test_every_yaml_key_is_run_shaping_or_shared():
    assert {path for path, _, _ in RUN_KEYS} | SHARED_KEYS == set(yaml_paths(cli._YAML_FIELDS))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("path, value, readers", RUN_KEYS, ids=[k[0] for k in RUN_KEYS])
def test_every_family_key_changes_the_runs_or_is_rejected(family, path, value, readers):
    section, _, key = path.partition(".")
    raw = {"family": family, section: {key: value} if key else value}
    if family in readers:
        default = built_runs(build_config({"family": family}))
        assert built_runs(build_config(raw)) != default
    else:
        with pytest.raises(ConfigError, match=re.escape(f"{path}: the {family} family")):
            build_config(raw)


def test_objective_selection_accepts_a_stream_without_ctr():
    cfg = build_config({
        "family": FAMILY_OBJECTIVE,
        "stream": {"tasks": [
            {"name": "click", "kind": "binary", "category": "pet"},
            {"name": "happy", "kind": "binary", "category": "pst"},
        ]},
        "schedule": {"online_sim": {"policy_task": "click", "satisfaction_task": "happy"}},
        "distill": {"alpha": {"click": 2.0}},
    })
    (run,) = build_runs(cfg)
    both = ("click", "happy")
    assert run.teacher.write_tasks == both
    assert [s.distill for s in run.students] == [(), ("click",), both, both]


def test_build_config_rejects_bad_input():
    with pytest.raises(ConfigError, match="root must be a mapping"):
        build_config([1, 2])
    with pytest.raises(ConfigError, match="family is required"):
        build_config({})
    with pytest.raises(ConfigError, match="unknown keys under config"):
        build_config({"family": FAMILY_DISTILL, "bogus": 1})
    with pytest.raises(ConfigError, match="unknown keys under stream"):
        build_config({"family": FAMILY_DISTILL, "stream": {"nope": 1}})
    with pytest.raises(ConfigError, match="seeds"):
        build_config({"family": FAMILY_DISTILL, "seeds": "zero"})
    with pytest.raises(ConfigError, match=r"unknown keys under stream.tasks\[0\]: distill"):
        build_config({
            "family": FAMILY_DISTILL,
            "stream": {"tasks": [{"name": "x", "kind": "binary", "distill": True}]},
        })
    with pytest.raises(ConfigError, match="name and kind"):
        build_config({
            "family": FAMILY_DISTILL,
            "stream": {"tasks": [{"name": "x"}]},
        })
    with pytest.raises(ConfigError, match="expected a mapping"):
        build_config({"family": FAMILY_DISTILL, "distill": {"alpha": [1]}})
    with pytest.raises(ConfigError, match="expected a non-empty list of ints"):
        build_config({"family": FAMILY_DISTILL, "model": {"tower": []}})
    # each value below was once accepted, silently coerced, or escaped as a
    # ValueError/TypeError; the error must name its YAML path
    for override, path in BAD_VALUES:
        with pytest.raises(ConfigError, match=re.escape(f"{path}: ")):
            build_config({"family": "custom", **override})


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("family: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(bad)


def readable_keys(cls, names=None, prefix=""):
    """Every YAML key path build_config reads into the dataclass cls, list
    items unindexed; names is _YAML_FIELDS at the top level."""
    hints = get_type_hints(cls)
    for key, name in (names or {f.name: f.name for f in fields(cls)}).items():
        path = prefix + key
        if isinstance(name, dict):
            yield from readable_keys(cls, name, path + ".")
            continue
        inner = [a for a in get_args(hints[name]) or (hints[name],) if is_dataclass(a)]
        if inner:
            yield from readable_keys(inner[0], None, path + ".")
        else:
            yield path


def example_keys(raw, prefix=""):
    """Every key path a parsed YAML mapping sets, list items unindexed."""
    for key, value in raw.items():
        items = value if isinstance(value, list) else [value]
        if any(isinstance(v, dict) for v in items):
            for v in items:
                yield from example_keys(v, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_readme_yaml_example_is_accepted():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## YAML config", 1)[1]
    example = yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])
    cfg = build_config(example)
    assert cfg.family == "custom"
    assert [s.name for s in cfg.students] == ["control", "pupil"]
    # it sets every key custom reads; training.student takes training.teacher's keys
    set_keys = set(example_keys(example))

    def covered(path):
        path = path.replace("training.student.", "training.teacher.")
        return any(k == path or k.startswith(path + ".") for k in set_keys)

    readable = readable_keys(ExperimentConfig, cli._YAML_FIELDS)
    unread = cli._UNREAD[FAMILY_CUSTOM]
    assert [p for p in readable if not p.startswith(unread) and not covered(p)] == []


def test_config_digest_stable_and_sensitive():
    a = default_experiment(FAMILY_SCALE, (0, 1))
    b = default_experiment(FAMILY_SCALE, (0, 1))
    c = default_experiment(FAMILY_SCALE, (0, 2))
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest(c)
    assert len(config_digest(a)) == 64
    int(config_digest(a), 16)


def test_split_job_name():
    assert split_job_name("s3/direct") == (3, "direct")
    assert split_job_name("teacher") == (-1, "teacher")
    assert split_job_name("snake/case") == (-1, "snake/case")


def test_fmt_ci_small_samples_report_bare_mean():
    assert cli._fmt_ci([0.5, 0.7]) == "0.6000"
    wide = cli._fmt_ci([float(i) for i in range(12)])
    assert wide.startswith("5.5000 [") and wide.endswith("]")


def rows_for_report(metrics):
    rows = []
    for job, task, metric, per_seed in metrics:
        for seed, value in per_seed.items():
            rows.append(MetricRow(40, f"s{seed}/{job}", task, metric, value))
    return rows


def test_build_report_distill_layout_transposed():
    rows = rows_for_report([
        ("control", "ctr", "auc", {0: 0.70, 1: 0.72}),
        ("direct", "ctr", "auc", {0: 0.74, 1: 0.75}),
        ("auxiliary", "ctr", "auc", {0: 0.73, 1: 0.76}),
        ("control", "ltv", "rmse", {0: 1.0, 1: 1.1}),
        ("direct", "ltv", "rmse", {0: 0.9, 1: 0.8}),
        ("auxiliary", "ltv", "rmse", {0: 0.95, 1: 0.85}),
        ("auxiliary", "ltv", "rmse_true", {0: 0.5, 1: 0.5}),
        ("direct", JOB_LEVEL_TASK, "coverage", {0: 0.5, 1: 0.75}),
        ("auxiliary", JOB_LEVEL_TASK, "coverage", {0: 1.0, 1: 1.0}),
    ])
    # rows from an earlier eval point must be ignored
    rows.append(MetricRow(20, "s0/control", "ctr", "auc", 0.1))
    text = build_report(rows, family=FAMILY_DISTILL)
    lines = text.splitlines()
    assert "| metric | control | direct | auxiliary |" in lines
    auc_line = next(l for l in lines if l.startswith("| ctr.auc"))
    assert auc_line == "| ctr.auc | 0.7100 | 0.7450 | 0.7450 |"
    assert lines[0] == "# distill-strategy report"
    assert not any("rmse_true" in l for l in lines)
    # paired deltas vs control: direct ctr.auc is mean of (0.04, 0.03)
    delta = next(l for l in lines if l.startswith("| direct |"))
    assert "0.0350" in delta
    cov = [l for l in lines if l.startswith("| auxiliary | 1.000")]
    assert cov, text


def test_build_report_wide_layout_and_lifts():
    rows = rows_for_report([
        ("control", "ctr", "auc", {0: 0.70, 1: 0.71}),
        ("student-2x", "ctr", "auc", {0: 0.74, 1: 0.73}),
        ("control", JOB_LEVEL_TASK, "engagement", {0: 0.50, 1: 0.50}),
        ("student-2x", JOB_LEVEL_TASK, "engagement", {0: 0.55, 1: 0.60}),
        ("control", JOB_LEVEL_TASK, "satisfaction", {0: 0.40, 1: 0.40}),
        ("student-2x", JOB_LEVEL_TASK, "satisfaction", {0: 0.42, 1: 0.38}),
    ])
    text = build_report(rows)
    lines = text.splitlines()
    assert lines[0] == "# Experiment report"
    assert "| variant | ctr.auc |" in lines
    header_idx = lines.index("| variant | ctr.auc |")
    assert lines[header_idx + 2].startswith("| control |")  # control listed first
    sim = next(l for l in lines if l.startswith("| student-2x | 0.575"))
    # paired lifts: engagement (10%, 20%) -> 15; satisfaction (5%, -5%) -> 0
    assert "15.0000" in sim
    assert "0.0000" in sim
    control_sim = next(
        l for l in lines if l.startswith("| control | 0.5000")
    )
    assert control_sim.rstrip().endswith("| - | - |")
    with pytest.raises(SchemaError, match="no metric rows"):
        build_report([])


TINY_YAML = """\
family: custom
seeds: [0]
stream:
  feature_dim: 8
schedule:
  total_steps: 6
  batch_size: 16
  eval_every: 0
  eval_batches: 2
model:
  teacher_trunk: [10]
  student_trunk: [8]
  tower: [5]
training:
  teacher: {warmup_steps: 0}
  student: {warmup_steps: 0}
students:
  - {name: control, mode: none}
  - {name: aux, mode: auxiliary, distill: [ctr], alpha: {ctr: 0.5}}
"""


def test_cmd_run_writes_artifacts(tmp_path, capsys):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(TINY_YAML)
    out = tmp_path / "out"
    code = main(["run", str(cfg_path), "--out", str(out), "--seeds", "0,1"])
    assert code == 0
    rows = read_metrics_csv(out / "metrics.csv")
    assert rows
    jobs = {r.job for r in rows}
    assert jobs == {
        "s0/teacher", "s0/control", "s0/aux", "s1/teacher", "s1/control", "s1/aux"
    }
    report = (out / "report.md").read_text()
    assert report.startswith("# custom report")
    assert "| variant |" in report
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["family"] == "custom"
    assert manifest["seeds"] == [0, 1]
    assert manifest["runs"] == ["main"]
    assert manifest["metric_rows"] == len(rows)
    assert manifest["config_sha256"] == config_digest(load_config(cfg_path, (0, 1)))
    assert (out / "stores" / "main-s0" / "MANIFEST").exists()
    assert (out / "stores" / "main-s1" / "MANIFEST").exists()
    assert "metrics.csv" in capsys.readouterr().out


def test_cmd_run_twice_into_one_out_gives_identical_metrics(tmp_path):
    # the rerun must start from fresh stores: run_online refuses a store
    # that already holds segments (StoreError), and reading the first run's
    # labels would change the second run's metrics
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(
        "family: custom\n"
        "seeds: [0]\n"
        "schedule: {total_steps: 40, batch_size: 32, eval_every: 20, eval_batches: 2}\n"
        "students:\n"
        "  - {name: control}\n"
        "  - {name: pupil, mode: auxiliary, distill: [ctr]}\n"
    )
    out = tmp_path / "out"
    csvs = []
    for _ in range(2):
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
        csvs.append((out / "metrics.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_a_durable_run_writes_the_same_bytes_with_one_fsync_per_commit(tmp_path, monkeypatch):
    synced = []
    real = labelstore.os.fsync

    def counting(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        return real(fd)

    outs = []
    for durable in (False, True):
        if durable:
            monkeypatch.setattr(labelstore.os, "fsync", counting)
        cfg_path = tmp_path / f"exp-{durable}.yaml"
        cfg_path.write_text(yaml.safe_dump({
            "family": FAMILY_DISTILL,
            "schedule": {"total_steps": 40, "eval_every": 20, "durable_store": durable},
        }))
        out = tmp_path / f"out-{durable}"
        assert main(["run", str(cfg_path), "--seeds", "0,1", "--out", str(out)]) == 0
        outs.append(out)
    plain, durable = (
        {p.relative_to(out): p.read_bytes() for p in sorted(out.glob(f"stores/*/{MANIFEST_NAME}"))}
        for out in outs
    )
    assert len(plain) == 2 and plain == durable
    assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()
    # each store's directory once, when its log is created, then its log
    # once per commit
    commits = sum(len(log_records(data)) for data in durable.values())
    assert commits == 2 * 40
    assert synced.count(True) == 2 and synced.count(False) == commits


def test_cmd_run_bad_config_exit_code(tmp_path, capsys):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text("family: nonsense\n")
    assert main(["run", str(cfg_path)]) == 1
    assert "config error" in capsys.readouterr().err
    # a value the dataclass rejects with ValueError is a config error too
    cfg_path.write_text("family: custom\ntraining:\n  teacher: {base_lr: -1}\n")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: training.teacher: base_lr must be positive")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    # seed lists the parser or the seed sequence cannot take
    cfg_path.write_text("family: custom\n")
    for seeds in ("abc", "1-", "-3"):
        assert main(["run", str(cfg_path), "--seeds", seeds, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err, err
    for threads in ("0", "-2"):
        assert main(["run", str(cfg_path), "--threads", threads, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("config error: --threads must be >= 1")
    cfg_path.write_text("family: custom\nseeds: [-1]\n")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("config error: config: seeds: must be >= 0")
    assert not (tmp_path / "out").exists()
    cfg_path.write_text("family: custom\nmodel: {student_trunk: [0]}\n")
    assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config: model.student_trunk: widths must be >= 1")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    # a scale below 1 once ran the cells before it and wrote their stores
    cfg_path.write_text("family: teacher-scale\nmodel: {teacher_scales: [1, -2]}\n")
    assert main(["run", str(cfg_path), "--seeds", "0", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "config error: config: model.teacher_scales: scales must be >= 1, got [1, -2]\n"
    )
    assert not (tmp_path / "out").exists()  # so no stores/ either
    # a student set the run cannot hold is refused at load too
    cfg_path.write_text("family: custom\nstudents: [{name: a}, {name: a}]\n")
    assert main(["run", str(cfg_path), "--seeds", "0", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "config error: config: students[1]: job name 'a' is already taken\n"
    )
    assert not (tmp_path / "out").exists()
    # so is each config a run of it would fail on; so are repeated --seeds
    cases = [({"family": FAMILY_CUSTOM, **o}, ["--seeds", "0"], p) for o, p in LATE_FAILURES]
    cases.append(({"family": FAMILY_CUSTOM}, ["--seeds", "1,0-2"], "seeds"))
    for raw, seeds, path in cases:
        cfg_path.write_text(yaml.safe_dump(raw))
        assert main(["run", str(cfg_path), *seeds, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{path}: " in err, (raw, err)
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists(), raw


def test_cmd_run_one_class_eval_set_is_a_config_error(tmp_path, capsys):
    # two eval rows are too few to hold both classes of every binary task
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(
        "family: custom\n"
        "schedule: {total_steps: 3, batch_size: 2, eval_every: 0, eval_batches: 1}\n"
    )
    assert main(["run", str(cfg_path), "--seeds", "0", "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.match(
        r"config error: the eval set at step 3 holds only one class of binary "
        r"task '\w+': 2 rows \(batch_size 2 x eval_batches 1\)", err
    ), err


def seed_store(root):
    tasks = [("ctr", BINARY)]
    ids = np.array([1, 2, 3], dtype=np.uint64)
    values = {"ctr": np.array([0.1, 0.2, 0.3], dtype=np.float32)}
    with SegmentWriter(LabelStore(root), tasks) as w:
        w.append(ids, values, teacher_version=1)
        w.append(ids + 10, values, teacher_version=2)


def test_cmd_inspect_exit_codes(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "absent")]) == 1
    assert "missing" in capsys.readouterr().err

    store = tmp_path / "store"
    seed_store(store)
    assert main(["inspect", str(store)]) == 0
    out = capsys.readouterr().out
    assert "status: OK" in out
    assert "segments: 2  rows: 6  tasks: ctr(binary)" in out
    assert "seg 2: teacher_version=2 rows=3 ids=[11, 13] ok" in out
    assert "torn tail" not in out

    # the exit code comes from the directory, not from the error's text,
    # which names the path
    store = tmp_path / "missing-parent" / "store"
    seed_store(store)
    log = store / MANIFEST_NAME
    log.write_bytes(b"XXXX" + log.read_bytes()[4:])
    assert main(["inspect", str(store)]) == 3
    assert "bad log magic" in capsys.readouterr().out


@pytest.mark.parametrize("tail", [10, 3, 0])
def test_cmd_inspect_reports_a_torn_tail_and_passes(tmp_path, capsys, tail):
    # a crash mid-append leaves a prefix of the next record, or zeros
    store = tmp_path / "store"
    seed_store(store)
    log = store / MANIFEST_NAME
    data = log.read_bytes()
    debris = log_records(data)[1][:tail] if tail else bytes(40)
    log.write_bytes(data + debris)
    assert main(["inspect", str(store)]) == 0
    out = capsys.readouterr().out
    assert f"torn tail: {len(debris)} bytes after commit 2" in out
    assert "seg 1: teacher_version=1 rows=3 ids=[1, 3] ok" in out
    assert "seg 2: teacher_version=2 rows=3 ids=[11, 13] ok" in out
    assert "status: OK" in out


@pytest.mark.parametrize("record, offset, match", [
    (1, -6, "checksum mismatch"),  # the last record, complete, in its values
    (0, -6, "checksum mismatch"),  # a bad record before a good one
    (0, 1, "length checksum mismatch"),  # the first record's length
])
def test_cmd_inspect_reports_a_bad_record_as_corrupt(tmp_path, capsys, record, offset, match):
    store = tmp_path / "store"
    seed_store(store)
    log = store / MANIFEST_NAME
    records = [bytearray(r) for r in log_records(log.read_bytes())]
    records[record][offset] ^= 0xFF
    log.write_bytes(LOG_HEADER + b"".join(records))
    assert main(["inspect", str(store)]) == 3
    out = capsys.readouterr().out
    assert re.search(rf"status: CORRUPT \(.*record at byte \d+: {match}\)", out)
    assert "torn tail" not in out


def test_cmd_inspect_reports_a_record_that_does_not_decode(tmp_path, capsys):
    store = tmp_path / "store"
    seed_store(store)
    log = store / MANIFEST_NAME
    first, second = log_records(log.read_bytes())
    # sound crcs around a body whose ctr kind byte (offset 8+8+2+2+3) is 7
    body = bytearray(segment_body(first))
    body[23] = 7
    payload = struct.pack("<Q", len(body)) + zlib.compress(bytes(body), 6, wbits=-15)
    n = struct.pack("<I", len(payload))
    head = n + struct.pack("<I", zlib.crc32(n)) + payload
    log.write_bytes(LOG_HEADER + head + struct.pack("<I", zlib.crc32(head)) + second)
    assert main(["inspect", str(store)]) == 3
    captured = capsys.readouterr()
    assert re.search(r"commit 1: CORRUPT \(.*unknown task kind 7\)", captured.out)
    assert "seg 2: teacher_version=2 rows=3 ids=[11, 13] ok" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_cmd_inspect_names_a_format_3_store(tmp_path, capsys):
    store = tmp_path / "store"
    store.mkdir()
    # a format-3 MANIFEST listing segment 1, beside its segment file
    body = b"SLM1" + struct.pack("<QIQ", 1, 1, 1)
    (store / MANIFEST_NAME).write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    (store / "seg-0000000000000001.sls").write_bytes(b"SLS1")
    assert main(["inspect", str(store)]) == 3
    out = capsys.readouterr().out
    assert "a format-3 store" in out
    assert "stray files: seg-0000000000000001.sls" in out


def test_cmd_replay_rebuilds_report(tmp_path, capsys):
    rows = rows_for_report([
        ("control", "ctr", "auc", {0: 0.7}),
        ("direct", "ctr", "auc", {0: 0.75}),
        ("auxiliary", "ctr", "auc", {0: 0.74}),
    ])
    csv = tmp_path / "metrics.csv"
    write_metrics_csv(csv, rows)
    # a bare csv gets the generic layout: control first, then by name
    assert main(["replay", str(csv)]) == 0
    assert "| variant | ctr.auc |\n|---|---|\n| control |" in capsys.readouterr().out
    report = (tmp_path / "report.md").read_text()
    assert report.startswith("# Experiment report")
    assert report.index("| auxiliary |") < report.index("| direct |")
    # the family comes from the run_manifest.json beside the csv
    manifest = tmp_path / "run_manifest.json"
    manifest.write_text(json.dumps({"family": FAMILY_DISTILL}))
    assert main(["replay", str(csv)]) == 0
    assert "| metric | control | direct | auxiliary |" in capsys.readouterr().out
    report = (tmp_path / "report.md").read_text()
    assert report.startswith("# distill-strategy report")
    alt = tmp_path / "sub" / "r.md"
    assert main(["replay", str(csv), "--out", str(alt)]) == 0
    assert alt.read_text() == report
    capsys.readouterr()

    header = "step,job,task,metric,value\n"
    bad_inputs = [  # (csv text or None for no file, manifest text, error)
        ("nope,nope\n", None, "expected header"),
        # a csv from before the lo/hi columns were dropped
        ("step,job,task,metric,value,lo,hi\n40,s0/control,ctr,auc,0.7,,\n", None,
         "expected header step,job,task,metric,value, got step,job,task,metric,value,lo,hi"),
        (header + "x,s0/control,ctr,auc,0.7\n", None, "bad.csv:2: invalid literal"),
        (header + "40,s0/control,ctr,auc,high\n", None, "bad.csv:2: could not convert"),
        (header + "\n40,s0/control,ctr,auc,high\n", None, "bad.csv:3: could not convert"),
        (header + "40,s0/" + "x" * 200_000 + ",ctr,auc,0.7\n", None, "cannot read"),
        (None, None, "cannot read"),
        (header + "40,s0/control,ctr,auc,0.7\n", "{not json", "cannot read the run's family"),
        (header + "40,s0/control,ctr,auc,0.7\n", "[1]", "cannot read the run's family"),
        (header + "40,s0/control,ctr,auc,0.7\n", '{"family": "nope"}', "unknown family"),
        (header + "40,s0/control,ctr,auc,0.7\n", "{}", "unknown family None"),
    ]
    for i, (text, manifest_text, error) in enumerate(bad_inputs):
        case = tmp_path / f"bad{i}"
        case.mkdir()
        if text is not None:
            (case / "bad.csv").write_text(text)
        if manifest_text is not None:
            (case / "run_manifest.json").write_text(manifest_text)
        assert main(["replay", str(case / "bad.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("schema error:") and error in err, (i, err)
        assert not (case / "report.md").exists()


@pytest.mark.parametrize(
    "family, students",
    [(family, "") for family in FAMILIES]
    + [(FAMILY_CUSTOM, "[{name: control}, {name: direct, mode: direct, distill: [ltv]},"
                       " {name: auxiliary, mode: auxiliary, distill: [ltv]}]")],
    ids=[*FAMILIES, "custom-distill-students"],
)
def test_replay_rewrites_the_report_run_wrote(tmp_path, capsys, family, students):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(
        f"family: {family}\n"
        "seeds: [0]\n"
        "schedule: {total_steps: 20, eval_every: 10}\n"
        + (f"students: {students}\n" if students else "")
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    written = (out / "report.md").read_bytes()
    assert written.startswith(f"# {family} report".encode())
    assert main(["replay", str(out / "metrics.csv")]) == 0
    assert (out / "report.md").read_bytes() == written
    capsys.readouterr()


def test_main_maps_runtime_errors_to_exit_codes(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(TINY_YAML)

    def boom_divergence(*a, **kw):
        raise DivergenceError("loss went non-finite", job="s0/aux")

    out = ["--out", str(tmp_path / "out")]
    monkeypatch.setattr(cli, "run_experiment", boom_divergence)
    assert main(["run", str(cfg_path), *out]) == 2
    assert capsys.readouterr().err == "runtime divergence: s0/aux: loss went non-finite\n"

    def boom_corrupt(*a, **kw):
        raise StoreCorruptionError("checksum mismatch")

    monkeypatch.setattr(cli, "run_experiment", boom_corrupt)
    assert main(["run", str(cfg_path), *out]) == 3
    assert "corruption" in capsys.readouterr().err


def test_main_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
