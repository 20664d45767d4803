"""End-to-end command line behavior: exit codes, outputs, stage isolation."""

import argparse
import dataclasses
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

import binrisk
import binrisk.pipeline
from binrisk.cli import EXIT_ALERTS, EXIT_ERROR, EXIT_OK, build_parser, main
from binrisk.config import PipelineConfig
from binrisk.cpg import EdgeKind, load_cpg
from binrisk.embedding import HashEmbedder
from binrisk.errors import ConfigError
from binrisk.graphormer import ModelConfig, dumps_params, init_params
from binrisk.pipeline import write_atomic
from binrisk.ssckg import (DEFAULT_WEIGHTS, RelationConfig, RelationType, SsckgGraph,
                           dumps_ssckg, extract_relations, load_cves, load_ssckg)

from oracles import edge_rows, node_rows


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def config_text(base=None, **knobs) -> str:
    """The fixture config ``base``, its paths made absolute, if one is
    given, with ``knobs`` set on top."""
    doc = {}
    if base is not None:
        doc = json.loads(base.read_text(encoding="utf-8"))
        for key, value in doc.items():
            if key.endswith(("_path", "_dir")):
                doc[key] = str(base.parent / value)
    doc.update(knobs)
    return json.dumps(doc)


def write_config(tmp_path, base=None, **knobs):
    """tmp_path/cfg.json holding ``config_text(base, **knobs)``."""
    path = tmp_path / "cfg.json"
    path.write_text(config_text(base, **knobs), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory, fixtures_dir):
    outdir = tmp_path_factory.mktemp("toy_run")
    code = main(["report", "--config", str(fixtures_dir / "config_toy.json"),
                 "--cpg", str(fixtures_dir / "toy_modbus.cpg.json"),
                 "--outdir", str(outdir)])
    assert code == EXIT_OK
    return outdir


@pytest.fixture(scope="module")
def firmware_run(tmp_path_factory, fixtures_dir):
    outdir = tmp_path_factory.mktemp("firmware_run")
    code = main(["report", "--config", str(fixtures_dir / "config_firmware.json"),
                 "--cpg", str(fixtures_dir / "firmware_update.cpg.json"),
                 "--outdir", str(outdir)])
    assert code == EXIT_ALERTS
    return outdir


# --- start-up ----------------------------------------------------------------

# Blocks scipy (an import of it raises ImportError), checks that the CLI
# module and its parser load no scipy module, then runs the CLI.
NO_SCIPY_CLI = """
import sys
sys.modules["scipy"] = None
import binrisk.cli
binrisk.cli.build_parser()
loaded = sorted(name for name, module in sys.modules.items()
                if name.startswith("scipy") and module is not None)
if loaded:
    raise SystemExit(f"scipy modules loaded: {loaded}")
raise SystemExit(binrisk.cli.main(sys.argv[1:]))
"""


def test_report_needs_no_scipy(capsys, fixtures_dir, tmp_path):
    def report(outdir):
        return ["report", "--config", str(fixtures_dir / "config_toy.json"),
                "--cpg", str(fixtures_dir / "toy_modbus.cpg.json"), "--outdir", str(outdir)]

    assert main(report(tmp_path / "in_process")) == EXIT_OK
    in_process = capsys.readouterr().out
    src = str(Path(binrisk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_CLI, *report(tmp_path / "alone")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == in_process
    names = sorted(p.name for p in (tmp_path / "in_process").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "alone").iterdir())
    for name in names:
        assert (tmp_path / "alone" / name).read_bytes() == \
            (tmp_path / "in_process" / name).read_bytes(), name


# Runs the CLI, then fails if numpy.ma was imported along the way.
NO_NUMPY_MA_CLI = """
import sys
import binrisk.cli
code = binrisk.cli.main(sys.argv[1:])
if "numpy.ma" in sys.modules:
    raise SystemExit("numpy.ma was imported")
raise SystemExit(code)
"""


def test_report_does_not_import_numpy_ma(fixtures_dir, tmp_path):
    # A plain np.unique imports numpy.ma to look for a mask; report and
    # its knowledge-graph build use a sort instead.
    src = str(Path(binrisk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_MA_CLI, "report", "--config",
                           str(fixtures_dir / "config_firmware.json"), "--cpg",
                           str(fixtures_dir / "firmware_update.cpg.json"),
                           str(fixtures_dir / "diamond.cpg.json"), "--outdir", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_ALERTS, proc.stderr


def test_reports_sharing_a_warm_embedder_write_the_same_bytes(monkeypatch, fixtures_dir,
                                                              tmp_path):
    # The embedder keeps each token's slot once hashed; a second report
    # through the same, now warm, instance writes the first one's bytes.
    shared = {}

    def one_provider(cfg):
        return shared.setdefault("provider", build_provider(cfg))

    build_provider = binrisk.pipeline.build_provider
    monkeypatch.setattr(binrisk.pipeline, "build_provider", one_provider)
    argv = ["report", "--config", str(fixtures_dir / "config_firmware.json"), "--cpg",
            str(fixtures_dir / "firmware_update.cpg.json"), str(fixtures_dir / "diamond.cpg.json")]
    for name in ("cold", "warm"):
        assert main(argv + ["--outdir", str(tmp_path / name)]) == EXIT_ALERTS
    assert shared["provider"]._slots
    names = sorted(p.name for p in (tmp_path / "cold").iterdir())
    assert len(names) == 16 and names == sorted(p.name for p in (tmp_path / "warm").iterdir())
    for name in names:
        assert (tmp_path / "warm" / name).read_bytes() == \
            (tmp_path / "cold" / name).read_bytes(), name


def test_graphs_have_one_representation():
    """The graphs are built from columns only: the package defines no row
    classes, row views or second constructors, and none of the references
    the tests keep in oracles.py."""
    gone = {"CpgNode", "CpgEdge", "Relation", "similarity", "attention_matrix",
            "relation_edges", "entity_relations", "_node_doc", "_edge_doc", "_relation_doc"}
    for module in (binrisk, binrisk.cpg, binrisk.ssckg, binrisk.graphormer,
                   binrisk.fingerprint):
        assert not gone & set(vars(module)), module.__name__
    for cls in (binrisk.cpg.CpgGraph, binrisk.ssckg.SsckgGraph):
        assert not {"_from_columns", "_build", "nodes", "edges", "relations"} & set(vars(cls))
    assert not {"rows", "__iter__", "__eq__"} & set(vars(binrisk.ssckg.RelationColumns))


def test_package_writes_only_through_write_atomic():
    """No module of the package writes a file but through ``write_atomic``:
    no ``write_bytes`` or ``write_text`` call and no ``open`` for writing."""
    for path in Path(binrisk.__file__).resolve().parent.glob("*.py"):
        text = re.sub(r"\ndef write_atomic\(.*?(?=\ndef )", "", path.read_text(encoding="utf-8"),
                      flags=re.S)
        assert not re.search(r"\.write_(bytes|text)\(|open\([^)]*[\"'][wax]b?[\"']", text), path


def cli_options(parser, command=()):
    """(subcommand words, option string, dest) for every option of every
    subcommand, help aside."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from cli_options(sub, (*command, name))
        elif command and action.option_strings and not isinstance(action, argparse._HelpAction):
            yield command, action.option_strings[0], action.dest


def test_every_knob_comes_from_the_config_file():
    """No flag sets a config field, and --config is on exactly the
    commands that read a knob."""
    options = list(cli_options(build_parser()))
    assert len(options) == 40
    knobs = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert not [o for o in options if o[2] in knobs]
    assert sorted(" ".join(c) for c, flag, _ in options if flag == "--config") == [
        "build-ssckg", "embed", "export-dot", "forward", "lift", "match", "report", "score",
        "threshold"]


@pytest.mark.parametrize("argv", [
    ["ingest", "--config", "c.json", "--cpg", "g.json", "--out", "o.json"],
    ["lift", "--seed", "7", "--cpg", "g.json", "--out", "o.jsonl"],
    ["lift", "--cmd", "tool", "--cpg", "g.json", "--out", "o.jsonl"],
    ["score", "--beta", "0.5", "--kg", "kg.json", "--out", "o.json"],
    ["match", "--tau", "nan", "--kg-embeddings", "e.json", "--repo", "r", "--out", "o.json"],
], ids=["ingest_config", "lift_seed", "lift_cmd", "score_beta", "match_tau"])
def test_removed_flags_are_unrecognized(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# --- single commands ---------------------------------------------------------

def test_ingest_reports_graph_shape(capsys, fixtures_dir, tmp_path):
    out = tmp_path / "canon.json"
    code, doc, _ = run(capsys, "ingest",
                       "--cpg", str(fixtures_dir / "toy_modbus.cpg.json"),
                       "--out", str(out))
    assert code == EXIT_OK
    assert doc == {"binary_id": "toy_modbus", "nodes": 20, "edges": 31,
                   "functions": 5}
    first = out.read_bytes()
    run(capsys, "ingest", "--cpg", str(fixtures_dir / "toy_modbus.cpg.json"),
        "--out", str(out))
    assert out.read_bytes() == first  # canonical form is stable


def test_missing_input_gives_error_exit(capsys, tmp_path):
    code, _, err = run(capsys, "ingest", "--cpg", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "out.json"))
    assert code == EXIT_ERROR
    assert "error:" in err


def test_bad_config_key_gives_error_exit(capsys, fixtures_dir, tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text('{"not_a_real_knob": 1}', encoding="utf-8")
    code, _, err = run(capsys, "lift", "--config", str(bad),
                       "--cpg", str(fixtures_dir / "toy_modbus.cpg.json"),
                       "--out", str(tmp_path / "o.jsonl"))
    assert code == EXIT_ERROR
    assert "not_a_real_knob" in err


def test_config_is_frozen_and_builds_fresh_stage_objects():
    cfg = PipelineConfig(beta=0.5, model_layers=2, read_actions=["Memory"])
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.beta = 0.9
    with pytest.raises(ConfigError, match="beta must be in"):
        dataclasses.replace(cfg, beta=2.0)  # a changed copy is checked again
    assert cfg.propagation.beta == 0.5 and cfg.model.layers == 2
    assert cfg.model.input_dim == ModelConfig().input_dim
    cfg.relations.read_actions = ("Network",)
    assert cfg.relations.read_actions == ("Memory",)
    assert "relations" not in dataclasses.asdict(cfg)


# Relation tables a config sets, and the RelationConfig README "Config" says
# they mean: each non-empty table replaces the built-in one, and a
# relation_weights entry overrides one type's weight.
CONFIG_RELATION_TABLES = {
    "relation_weights": {"depends_on": 0.9},
    "structural_edge_labels": {"call": "depends_on"},
    "read_actions": ["Hardware/Coil_Write"],
    "write_actions": ["Hardware/Register_Read"],
    "taint_sources": ["Network/Socket_Init"],
    "taint_sinks": ["Hardware/Register_Read"],
}
HAND_BUILT_RELATIONS = RelationConfig(
    structural_edge_labels={"call": RelationType.DEPENDS_ON},
    read_actions=("Hardware/Coil_Write",), write_actions=("Hardware/Register_Read",),
    taint_sources=("Network/Socket_Init",), taint_sinks=("Hardware/Register_Read",),
    weights={**DEFAULT_WEIGHTS, RelationType.DEPENDS_ON: 0.9})


@pytest.mark.parametrize("tables, expected", [
    (CONFIG_RELATION_TABLES, HAND_BUILT_RELATIONS),
    ({}, RelationConfig()),
    ({name: {} if isinstance(table, dict) else []
      for name, table in CONFIG_RELATION_TABLES.items()}, RelationConfig()),
], ids=["set", "omitted", "empty"])
def test_config_relation_tables_reach_build_ssckg(capsys, fixtures_dir, toy_run, tmp_path,
                                                  tables, expected):
    """build-ssckg writes the KG that extract_relations gives under the
    RelationConfig the config's tables describe."""
    out = tmp_path / "kg.json"
    cpg = fixtures_dir / "toy_modbus.cpg.json"
    code, _, _ = run(capsys, "build-ssckg", "--config",
                     str(write_config(tmp_path, fixtures_dir / "config_toy.json", **tables)),
                     "--cpg", str(cpg), "--corpus", str(toy_run / "toy_modbus.corpus.jsonl"),
                     "--out", str(out))
    assert code == EXIT_OK
    kg = load_ssckg(out)
    g = load_cpg(cpg)
    cves = load_cves(fixtures_dir / "cves.json", HashEmbedder(dimension=384, seed=42))

    def dumped(config):
        relations = extract_relations(g, kg.entities, cves, 0.85, config)
        return dumps_ssckg(SsckgGraph(kg.entities, relations, source_binary=kg.source_binary,
                                      clustering=kg.clustering))

    assert out.read_text(encoding="utf-8") == dumped(expected)
    if tables == CONFIG_RELATION_TABLES:  # the tables change the graph
        assert dumped(expected) != dumped(RelationConfig())


def test_lift_summary(capsys, fixtures_dir, tmp_path):
    code, doc, _ = run(capsys, "lift",
                       "--config", str(fixtures_dir / "config_toy.json"),
                       "--cpg", str(fixtures_dir / "toy_modbus.cpg.json"),
                       "--out", str(tmp_path / "corpus.jsonl"))
    assert code == EXIT_OK
    assert doc == {"accepted": 5, "rejected": 0, "failed": 0,
                   "rejection_rate": 0.0}


# An external annotator that appends each request it reads to the file
# named by its argument and claims every data edge it was sent.
RECORDING_ANNOTATOR = r"""
import json, sys
data = sys.stdin.buffer.read()
with open(sys.argv[1], "ab") as log:
    log.write(data + b"\n")
req = json.loads(data)
print(json.dumps({"label": "Memory", "summary": "recorded", "claims": req["pdg_edges"]}))
"""


def lift_with_recorder(capsys, fixtures_dir, tmp_path):
    """Lift the firmware fixture with the config's annotator_cmd running
    the recording annotator: (exit code, summary, the requests it read)."""
    script, log = tmp_path / "recorder.py", tmp_path / "requests.log"
    script.write_text(RECORDING_ANNOTATOR, encoding="utf-8")
    cfg = write_config(tmp_path, annotator_type="cmd",
                       annotator_cmd=[sys.executable, str(script), str(log)])
    code, doc, _ = run(capsys, "lift", "--config", str(cfg),
                       "--cpg", str(fixtures_dir / "firmware_update.cpg.json"),
                       "--out", str(tmp_path / "corpus.jsonl"))
    return code, doc, log.read_text(encoding="utf-8").splitlines()


def test_lift_runs_a_script_annotator(capsys, fixtures_dir, tmp_path):
    code, doc, requests = lift_with_recorder(capsys, fixtures_dir, tmp_path)
    assert code == EXIT_OK
    assert doc == {"accepted": 6, "rejected": 0, "failed": 0, "rejection_rate": 0.0}
    assert len(requests) == 6


def test_cmd_annotator_requests_equal_the_row_view(capsys, fixtures_dir, tmp_path):
    """Each request is the documented one, built here from the graph's
    rows: the function's nodes in id order and its inner Pdg edges."""
    g = load_cpg(fixtures_dir / "firmware_update.cpg.json")
    expected = []
    for fid in g.function_ids:
        nodes = [n for n in node_rows(g) if n.function_id == fid]
        inside = {n.id for n in nodes}
        expected.append(json.dumps({
            "function_id": fid, "binary_id": g.binary_id,
            "nodes": [{"id": n.id, "kind": n.kind.value, "opcode": n.opcode,
                       "attrs": dict(sorted(n.attrs.items()))} for n in nodes],
            "pdg_edges": [[e.src, e.dst] for e in edge_rows(g) if e.kind is EdgeKind.PDG
                          and e.src in inside and e.dst in inside],
        }))
    assert lift_with_recorder(capsys, fixtures_dir, tmp_path)[2] == expected


def test_threshold_command(capsys, fixtures_dir, tmp_path):
    out = tmp_path / "threshold.json"
    code, doc, _ = run(capsys, "threshold",
                       "--scores", str(fixtures_dir / "threshold_scores.json"),
                       "--out", str(out))
    assert code == EXIT_OK
    assert doc["tau"] == 0.78
    assert doc["tpr"] == 0.72
    assert doc["fpr"] == 0.038
    assert doc["fpr_cap_satisfied"] is True
    assert json.loads(out.read_text())["tau"] == 0.78


def test_metrics_command(capsys, tmp_path):
    code, doc, _ = run(capsys, "metrics", "--confusion", "6,2,9,3")
    assert code == EXIT_OK
    assert doc["precision"] == 0.75
    assert doc["recall"] == pytest.approx(2 / 3)
    assert doc["f1"] == pytest.approx(12 / 17)
    assert doc["fpr"] == pytest.approx(2 / 11)
    assert doc["mcc"] == pytest.approx(0.4923659639173309)
    assert doc["flagged"] == []

    code, _, err = run(capsys, "metrics", "--confusion", "1,2,3")
    assert code == EXIT_ERROR and "tp,fp,tn,fn" in err
    code, _, err = run(capsys, "metrics", "--confusion", "a,b,c,d")
    assert code == EXIT_ERROR
    # One spelling per integer: int() reads these as 10, 3, 1 and 3.
    for confusion in ("1_0,2,3,4", "\u0663,2,3,4", "+1,2,3,4", "03,1,1,1"):
        code, _, err = run(capsys, "metrics", "--confusion", confusion)
        assert code == EXIT_ERROR and one_error_line(err)
        assert f"--confusion expects integers, got {confusion!r}" in err
    # A count past int64 would overflow the float of the MCC denominator.
    code, _, err = run(capsys, "metrics", "--confusion", "1" + "0" * 400 + ",1,1,1")
    assert code == EXIT_ERROR and one_error_line(err)
    assert "tp does not fit in int64" in err


def test_embed_command_is_seeded(capsys, fixtures_dir, tmp_path):
    texts = tmp_path / "texts.json"
    texts.write_text(json.dumps({"a": "socket recv frame", "b": ""}),
                     encoding="utf-8")
    out1, out2, out3 = (tmp_path / n for n in ("e1.json", "e2.json", "e3.json"))
    code, doc, _ = run(capsys, "embed", "--texts", str(texts), "--out", str(out1))
    assert code == EXIT_OK
    assert doc == {"embedded": 2, "dimension": 384}
    run(capsys, "embed", "--texts", str(texts), "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    run(capsys, "embed", "--config", str(write_config(tmp_path, seed=7)), "--texts", str(texts),
        "--out", str(out3))
    assert out1.read_bytes() != out3.read_bytes()
    vectors = json.loads(out1.read_text())
    assert set(vectors) == {"a", "b"}
    assert len(vectors["a"]) == 384


@pytest.mark.parametrize("texts", [{"a": None}, {"a": "ok", "b": 5}, {"a": ["x"]}])
def test_embed_rejects_non_string_texts(capsys, tmp_path, texts):
    path = tmp_path / "texts.json"
    path.write_text(json.dumps(texts), encoding="utf-8")
    out = tmp_path / "e.json"
    code, _, err = run(capsys, "embed", "--texts", str(path), "--out", str(out))
    bad = next(key for key, text in texts.items() if not isinstance(text, str))
    assert code == EXIT_ERROR
    assert one_error_line(err)
    assert f"texts file {path}: key '{bad}' has non-string text" in err
    assert not out.exists()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# --- full pipeline ------------------------------------------------------------

def test_report_toy_exit_and_ranking(capsys, toy_run):
    report = json.loads((toy_run / "toy_modbus.report.json").read_text())
    assert report["binary_id"] == "toy_modbus"
    assert report["corpus"] == {"accepted": 5, "rejected": 0, "failed": 0,
                                "total": 5, "rejection_rate": 0.0}
    assert report["stats"]["entities"] == 5
    assert report["stats"]["compression_ratio"] == 4.0
    ranking = report["risk"]["ranking"]
    assert ranking[0]["name"] == "write_coil"
    assert report["fingerprints"] is None


def test_report_firmware_raises_single_alert(capsys, firmware_run, fixtures_dir):
    report = json.loads((firmware_run / "firmware_update.report.json").read_text())
    assert report["fingerprints"]["alerts"] == ["planted_apt"]
    match = {m["fingerprint"]: m for m in report["fingerprints"]["matches"]}
    assert match["planted_apt"]["alert"] is True
    assert match["planted_apt"]["similarity"] == pytest.approx(0.94, abs=1e-6)
    assert match["decoy_apt"]["alert"] is False
    # the report command exposes the alert through its exit code
    code, doc, _ = run(capsys, "report",
                       "--config", str(fixtures_dir / "config_firmware.json"),
                       "--cpg", str(fixtures_dir / "firmware_update.cpg.json"),
                       "--outdir", str(firmware_run))
    assert code == EXIT_ALERTS
    assert doc == [{"binary_id": "firmware_update", "alerts": ["planted_apt"]}]


def test_report_is_repeatable_byte_for_byte(capsys, fixtures_dir, tmp_path):
    names = ["toy_modbus.cpg.json", "toy_modbus.corpus.jsonl",
             "toy_modbus.kg.json", "toy_modbus.embeddings.json",
             "toy_modbus.risk.json", "toy_modbus.report.json", "toy_modbus.dot"]
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code = main(["report", "--config", str(fixtures_dir / "config_toy.json"),
                     "--cpg", str(fixtures_dir / "toy_modbus.cpg.json"),
                     "--outdir", str(d)])
        capsys.readouterr()
        assert code == EXIT_OK
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


# An external annotator whose summaries spell out the order of the data
# edges it was sent, so any difference in graph order shows in the corpus.
ORDER_ANNOTATOR = r"""
import json, sys
req = json.load(sys.stdin)
print(json.dumps({"label": "Memory", "summary": "pdg %s" % req["pdg_edges"],
                  "claims": req["pdg_edges"]}))
"""


def test_manual_chain_equals_report_outputs(capsys, fixtures_dir, tmp_path, toy_run,
                                            firmware_run):
    """Each stage subcommand rereads only files while report chains the
    stages in memory, so the chained commands must reproduce the one-shot
    report outputs exactly: on the toy fixture, on the firmware fixture
    (clustering, CVE links, a fingerprint alert), and on a node- and
    edge-shuffled firmware graph lifted by an annotator that sees the
    edge order."""
    fw = fixtures_dir / "firmware_update.cpg.json"
    doc = json.loads(fw.read_text(encoding="utf-8"))
    rng = random.Random(0)
    rng.shuffle(doc["nodes"])
    rng.shuffle(doc["edges"])
    shuffled = tmp_path / "shuffled.cpg.json"
    shuffled.write_text(json.dumps(doc), encoding="utf-8")
    cmd_cfg = write_config(tmp_path, fixtures_dir / "config_firmware.json",
                           annotator_type="cmd",
                           annotator_cmd=[sys.executable, "-c", ORDER_ANNOTATOR])
    shuffled_run = tmp_path / "shuffled_run"
    assert main(["report", "--config", str(cmd_cfg), "--cpg", str(shuffled),
                 "--outdir", str(shuffled_run)]) in (EXIT_OK, EXIT_ALERTS)
    capsys.readouterr()

    cases = [
        ("toy_modbus", fixtures_dir / "toy_modbus.cpg.json",
         fixtures_dir / "config_toy.json", toy_run),
        ("firmware_update", fw, fixtures_dir / "config_firmware.json", firmware_run),
        ("firmware_update", shuffled, cmd_cfg, shuffled_run),
    ]
    for i, (bid, cpg, cfg, report_dir) in enumerate(cases):
        b = tmp_path / f"chain{i}"
        f = {suffix: str(b / f"{bid}.{suffix}") for suffix in (
            "cpg.json", "corpus.jsonl", "kg.json", "embeddings.json", "risk.json",
            "alerts.json", "dot")}
        c = ["--config", str(cfg)]
        steps = [
            ["ingest", "--cpg", str(cpg), "--out", f["cpg.json"]],
            ["lift", *c, "--cpg", f["cpg.json"], "--out", f["corpus.jsonl"]],
            ["build-ssckg", *c, "--cpg", f["cpg.json"], "--corpus", f["corpus.jsonl"],
             "--out", f["kg.json"]],
            ["forward", *c, "--kg", f["kg.json"], "--out", f["embeddings.json"]],
            ["score", *c, "--kg", f["kg.json"], "--out", f["risk.json"]],
            ["export-dot", *c, "--kg", f["kg.json"], "--risk", f["risk.json"],
             "--out", f["dot"]],
        ]
        if (report_dir / f"{bid}.alerts.json").exists():
            steps.append(["match", *c, "--kg-embeddings", f["embeddings.json"],
                          "--repo", str(fixtures_dir / "fingerprints"),
                          "--out", f["alerts.json"]])
        for argv in steps:
            assert main(argv) in (EXIT_OK, EXIT_ALERTS), argv
            capsys.readouterr()
        names = sorted(p.name for p in report_dir.iterdir()
                       if p.name != f"{bid}.report.json")
        assert sorted(p.name for p in b.iterdir()) == names
        for name in names:
            assert (b / name).read_bytes() == (report_dir / name).read_bytes(), (cpg, name)
    assert (shuffled_run / "firmware_update.cpg.json").read_bytes() == (
        firmware_run / "firmware_update.cpg.json").read_bytes()


def test_manual_match_equals_report_alerts(capsys, fixtures_dir, tmp_path,
                                           firmware_run):
    out = tmp_path / "alerts.json"
    code, doc, _ = run(capsys, "match",
                       "--config", str(fixtures_dir / "config_firmware.json"),
                       "--kg-embeddings",
                       str(firmware_run / "firmware_update.embeddings.json"),
                       "--repo", str(fixtures_dir / "fingerprints"),
                       "--out", str(out))
    assert code == EXIT_ALERTS
    assert doc["alerts"] == ["planted_apt"]
    assert out.read_bytes() == (
        firmware_run / "firmware_update.alerts.json").read_bytes()


def test_match_tau_override_silences_alert(capsys, fixtures_dir, firmware_run,
                                           tmp_path):
    code, doc, _ = run(capsys, "match", "--config", str(write_config(tmp_path, tau=0.99)),
                       "--kg-embeddings",
                       str(firmware_run / "firmware_update.embeddings.json"),
                       "--repo", str(fixtures_dir / "fingerprints"),
                       "--out", str(tmp_path / "alerts.json"))
    assert code == EXIT_OK
    assert doc["alerts"] == []
    assert doc["matches"] == 2


def test_fingerprint_extract_and_self_match(capsys, firmware_run, tmp_path):
    emb = firmware_run / "firmware_update.embeddings.json"
    repo = tmp_path / "repo"
    repo.mkdir()
    code, doc, _ = run(capsys, "fingerprint", "extract",
                       "--embeddings", str(emb), "--ids", "3,4",
                       "--name", "self_probe", "--provenance", "test",
                       "--out", str(repo / "self_probe.json"))
    assert code == EXIT_OK
    assert doc == {"name": "self_probe", "nodes": 2}
    # embeddings extracted from the target itself match it perfectly
    code, doc, _ = run(capsys, "match", "--config", str(write_config(tmp_path, tau=0.999)),
                       "--kg-embeddings", str(emb), "--repo", str(repo),
                       "--out", str(tmp_path / "alerts.json"))
    assert code == EXIT_ALERTS
    assert doc["alerts"] == ["self_probe"]


def test_fingerprint_extract_rejects_unknown_ids(capsys, firmware_run, tmp_path):
    code, _, err = run(capsys, "fingerprint", "extract",
                       "--embeddings",
                       str(firmware_run / "firmware_update.embeddings.json"),
                       "--ids", "3,99", "--name", "x",
                       "--out", str(tmp_path / "x.json"))
    assert code == EXIT_ERROR
    assert "99" in err
    for ids in ("1_0", "\u0663", "3,+4", "03", "-0"):  # int() reads 10, 3, (3, 4), 3 and 0
        code, _, err = run(capsys, "fingerprint", "extract", "--embeddings",
                           str(firmware_run / "firmware_update.embeddings.json"),
                           "--ids", ids, "--name", "x", "--out", str(tmp_path / "x.json"))
        assert code == EXIT_ERROR and one_error_line(err)
        assert f"--ids must be comma-separated integers, got {ids!r}" in err
    assert not (tmp_path / "x.json").exists()


def test_export_dot_without_risk(capsys, toy_run, tmp_path):
    out = tmp_path / "plain.dot"
    code, _, _ = run(capsys, "export-dot", "--kg",
                     str(toy_run / "toy_modbus.kg.json"), "--out", str(out))
    assert code == EXIT_OK
    text = out.read_text()
    assert text.startswith("digraph ssckg {")
    assert "risk=" not in text
    risky = (toy_run / "toy_modbus.dot").read_text()
    assert "risk=" in risky


def test_report_parallel_workers_identical_outputs(capsys, fixtures_dir, tmp_path):
    dirs = [tmp_path / "serial", tmp_path / "parallel"]
    cpgs = [str(fixtures_dir / "toy_modbus.cpg.json"),
            str(fixtures_dir / "diamond.cpg.json")]
    for d, workers in zip(dirs, ("1", "4")):
        code = main(["report", "--config", str(fixtures_dir / "config_toy.json"),
                     "--cpg", *cpgs, "--outdir", str(d), "--workers", workers])
        capsys.readouterr()
        assert code == EXIT_OK
    for name in ("toy_modbus.report.json", "diamond.report.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_report_rejects_bad_worker_count(capsys, fixtures_dir, tmp_path):
    code, _, err = run(capsys, "report",
                       "--config", str(fixtures_dir / "config_toy.json"),
                       "--cpg", str(fixtures_dir / "toy_modbus.cpg.json"),
                       "--outdir", str(tmp_path), "--workers", "0")
    assert code == EXIT_ERROR
    assert "workers" in err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_report_rejects_colliding_binary_ids(capsys, fixtures_dir, tmp_path, workers):
    toy = (fixtures_dir / "toy_modbus.cpg.json").read_text(encoding="utf-8")
    unnamed = json.dumps({**json.loads(toy), "binary_id": ""})
    inputs = {"a.json": toy, "b.json": toy,  # the same binary_id
              "one/x.json": unnamed, "two/x.json": unnamed}  # the same file stem
    for name, text in inputs.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    outdir = tmp_path / "out"
    for first, second in (("a.json", "b.json"), ("one/x.json", "two/x.json")):
        code, _, err = run(capsys, "report", "--config", str(fixtures_dir / "config_toy.json"),
                           "--cpg", str(tmp_path / first), str(fixtures_dir / "diamond.cpg.json"),
                           str(tmp_path / second), "--outdir", str(outdir), "--workers", workers)
        assert code == EXIT_ERROR
        assert one_error_line(err)
        assert str(tmp_path / first) in err and str(tmp_path / second) in err
        assert not outdir.exists()  # the run made it and took it away again



def test_report_holds_one_input_graph(capsys, fixtures_dir, tmp_path, monkeypatch):
    """report drops each input graph before it parses the next CPG."""
    toy = json.loads((fixtures_dir / "toy_modbus.cpg.json").read_text(encoding="utf-8"))
    (tmp_path / "copy.json").write_text(json.dumps({**toy, "binary_id": "copy"}),
                                        encoding="utf-8")
    load, graphs = binrisk.pipeline.load_cpg, []

    def tracked(path):
        assert all(ref() is None for ref in graphs), f"an input graph is live as {path} loads"
        g = load(path)
        graphs.append(weakref.ref(g))
        return g

    monkeypatch.setattr(binrisk.pipeline, "load_cpg", tracked)
    code = main(["report", "--config", str(fixtures_dir / "config_toy.json"),
                 "--cpg", str(fixtures_dir / "toy_modbus.cpg.json"),
                 str(fixtures_dir / "diamond.cpg.json"), str(tmp_path / "copy.json"),
                 "--outdir", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == EXIT_OK
    assert len(graphs) == 3


def test_report_drops_graph_and_corpus_before_forward(capsys, fixtures_dir, tmp_path,
                                                     monkeypatch):
    """No stage after build_kg reads the input graph or the corpus, so report
    drops both before the transformer runs."""
    load, corpus_of, fwd, inputs, entered = (binrisk.pipeline.load_cpg,
                                             binrisk.pipeline.build_corpus,
                                             binrisk.pipeline.forward, [], [])

    def tracked_load(path):
        g = load(path)
        inputs.append(("graph", weakref.ref(g)))
        return g

    def tracked_build_corpus(g, function_ids, annotator):
        corpus = corpus_of(g, function_ids, annotator)
        inputs.append(("corpus", weakref.ref(corpus)))
        return corpus

    def tracked_forward(kg, params):
        live = [name for name, ref in inputs if ref() is not None]
        assert not live, f"{live} live as forward starts"
        entered.append(kg)
        return fwd(kg, params)

    monkeypatch.setattr(binrisk.pipeline, "load_cpg", tracked_load)
    monkeypatch.setattr(binrisk.pipeline, "build_corpus", tracked_build_corpus)
    monkeypatch.setattr(binrisk.pipeline, "forward", tracked_forward)
    code = main(["report", "--config", str(fixtures_dir / "config_toy.json"),
                 "--cpg", str(fixtures_dir / "toy_modbus.cpg.json"),
                 str(fixtures_dir / "diamond.cpg.json"), "--outdir", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == EXIT_OK
    assert len(entered) == 2 and len(inputs) == 4


def counting(monkeypatch, names):
    """Wrap each named function of binrisk.pipeline with a call counter."""
    calls = dict.fromkeys(names, 0)

    def wrap(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(binrisk.pipeline, name, wrap(name, getattr(binrisk.pipeline, name)))
    return calls


def test_report_builds_each_resource_once(capsys, fixtures_dir, tmp_path, monkeypatch):
    """The annotator, the provider, the CVE list and the fingerprints are
    built once per run, however many binaries it takes."""
    toy = json.loads((fixtures_dir / "toy_modbus.cpg.json").read_text(encoding="utf-8"))
    (tmp_path / "copy.json").write_text(json.dumps({**toy, "binary_id": "copy"}),
                                        encoding="utf-8")
    calls = counting(monkeypatch, ["load_cves", "build_provider", "build_annotator",
                                   "load_repository"])
    code = main(["report", "--config", str(fixtures_dir / "config_firmware.json"),
                 "--cpg", str(fixtures_dir / "firmware_update.cpg.json"),
                 str(fixtures_dir / "diamond.cpg.json"),
                 str(fixtures_dir / "toy_modbus.cpg.json"), str(tmp_path / "copy.json"),
                 "--outdir", str(tmp_path / "out")])
    assert json.loads(capsys.readouterr().out)[0]["alerts"] == ["planted_apt"]
    assert code == EXIT_ALERTS
    assert calls == dict.fromkeys(calls, 1)


def test_report_rejects_a_bad_cve_file_before_any_graph(capsys, fixtures_dir, tmp_path,
                                                        monkeypatch):
    """A faulty file the config names ends report before a CPG is parsed,
    so it is the one error even when a later CPG is faulty too."""
    cves = tmp_path / "cves.json"
    cves.write_text(truncated((fixtures_dir / "cves.json").read_text(encoding="utf-8")),
                    encoding="utf-8")
    (tmp_path / "bad.cpg.json").write_text('{"nodes": [{"id": 0', encoding="utf-8")
    calls = counting(monkeypatch, ["load_cpg"])
    outdir = tmp_path / "out"
    code, _, err = run(capsys, "report", "--config",
                       str(write_config(tmp_path, fixtures_dir / "config_toy.json",
                                        cves_path=str(cves))),
                       "--cpg", str(fixtures_dir / "toy_modbus.cpg.json"),
                       str(tmp_path / "bad.cpg.json"), "--outdir", str(outdir))
    assert code == EXIT_ERROR
    assert one_error_line(err)
    assert f"CVE corpus {cves}" in err
    assert calls == {"load_cpg": 0}
    assert not outdir.exists()


def test_every_subcommand_calls_through_the_pipeline_module(capsys, fixtures_dir, tmp_path,
                                                            monkeypatch):
    """Each stage subcommand reaches its loaders, cores and writer by their
    names in binrisk.pipeline, so wrapping a name there sees every call."""
    calls = counting(monkeypatch, ["load_cpg", "load_corpus", "load_ssckg", "load_embeddings",
                                   "load_repository", "build_corpus", "write_atomic"])
    config, out = str(fixtures_dir / "config_firmware.json"), tmp_path
    steps = [
        (["ingest", "--cpg", str(fixtures_dir / "firmware_update.cpg.json"),
          "--out", f"{out}/cpg.json"], EXIT_OK, {"load_cpg"}),
        (["lift", "--config", config, "--cpg", f"{out}/cpg.json",
          "--out", f"{out}/corpus.jsonl"], EXIT_OK, {"load_cpg", "build_corpus"}),
        (["build-ssckg", "--config", config, "--cpg", f"{out}/cpg.json",
          "--corpus", f"{out}/corpus.jsonl", "--out", f"{out}/kg.json"], EXIT_OK,
         {"load_corpus", "load_cpg"}),
        (["forward", "--config", config, "--kg", f"{out}/kg.json",
          "--out", f"{out}/emb.json"], EXIT_OK, {"load_ssckg"}),
        (["score", "--config", config, "--kg", f"{out}/kg.json",
          "--out", f"{out}/risk.json"], EXIT_OK, {"load_ssckg"}),
        (["match", "--config", config, "--kg-embeddings", f"{out}/emb.json",
          "--repo", str(fixtures_dir / "fingerprints"), "--out", f"{out}/alerts.json"],
         EXIT_ALERTS, {"load_embeddings", "load_repository"}),
        (["export-dot", "--config", config, "--kg", f"{out}/kg.json",
          "--risk", f"{out}/risk.json", "--out", f"{out}/g.dot"], EXIT_OK, {"load_ssckg"}),
    ]
    for argv, expected_code, entered in steps:
        before = dict(calls)
        code = main(argv)
        capsys.readouterr()
        assert code == expected_code, argv[0]
        assert {name for name in calls if calls[name] > before[name]} == \
            entered | {"write_atomic"}, argv[0]


@pytest.mark.parametrize("position, text, needle", [
    (2, '{"nodes": [{"id": 0', "not valid JSON"),
    (1, '{"nodes": [], "edges": []}', "forward pass needs at least one entity"),
])
def test_report_writes_every_file_or_none(capsys, fixtures_dir, tmp_path, position, text,
                                          needle):
    """A bad input after good ones leaves --outdir as it was, staging included."""
    outdir = tmp_path / "out"
    outdir.mkdir()
    (outdir / "notes.txt").write_bytes(b"kept\n")
    (outdir / "toy_modbus.report.json").write_bytes(b"an earlier run's report\n")
    before = {name: (outdir / name).read_bytes() for name in os.listdir(outdir)}
    bad = tmp_path / "bad.cpg.json"
    bad.write_text(text, encoding="utf-8")
    cpgs = [str(fixtures_dir / "toy_modbus.cpg.json"), str(fixtures_dir / "diamond.cpg.json")]
    cpgs.insert(position, str(bad))
    code, _, err = run(capsys, "report", "--config", str(fixtures_dir / "config_toy.json"),
                       "--cpg", *cpgs, "--outdir", str(outdir))
    assert code == EXIT_ERROR
    assert one_error_line(err)
    assert needle in err
    assert {name: (outdir / name).read_bytes() for name in os.listdir(outdir)} == before


@pytest.mark.parametrize("outdir_exists", [False, True])
def test_sigterm_leaves_outdir_as_it_was(fixtures_dir, tmp_path, outdir_exists):
    """SIGTERM, as ``timeout`` sends it, unwinds a running report as Ctrl-C
    does: its staging directory goes, and so does an --outdir it made."""
    outdir = tmp_path / "out"
    if outdir_exists:
        outdir.mkdir()
        (outdir / "notes.txt").write_bytes(b"kept\n")
    before = {name: (outdir / name).read_bytes() for name in os.listdir(outdir)} \
        if outdir_exists else None
    # 80,000 layers, under the bound of 2**32 weights, keep the forward pass
    # busy for seconds after the KG is staged.
    config = write_config(tmp_path, fixtures_dir / "config_toy.json", model_layers=80_000)
    src = str(Path(binrisk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen([sys.executable, "-m", "binrisk.cli", "report", "--config",
                             str(config), "--cpg", str(fixtures_dir / "toy_modbus.cpg.json"),
                             "--outdir", str(outdir)],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)
    try:
        deadline = time.monotonic() + 60
        while not list(outdir.glob(".staging-*/toy_modbus.kg.json")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()  # left open, it warns when collected and fails a later test
    assert proc.returncode == 128 + signal.SIGTERM, err
    if outdir_exists:
        assert {name: (outdir / name).read_bytes() for name in os.listdir(outdir)} == before
    else:
        assert not outdir.exists()


def test_numpy_random_is_imported_before_the_sigterm_handler_is_set(tmp_path):
    """numpy imports numpy.random at the first weight draw, and its Cython
    modules' import swallows an exception raised inside it, so a SIGTERM
    landing there left report running; main imports it before it sets the
    handler."""
    code = ("import signal, sys\n"
            "import binrisk.cli as cli\n"
            "seen, set_handler = [], signal.signal\n"
            "def recording(signum, handler):\n"
            "    if handler is cli._terminate:\n"
            "        seen.append('numpy.random' in sys.modules)\n"
            "    return set_handler(signum, handler)\n"
            "signal.signal = recording\n"
            "assert cli.main(['metrics', '--confusion', '1,1,1,1']) == 0\n"
            "print(seen)\n")
    src = str(Path(binrisk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[True]"


def test_main_sets_its_sigterm_handler_for_the_call_only(capsys):
    """main puts the caller's SIGTERM handler back, and off the main
    thread, where no handler can be set, it sets none."""
    before = signal.getsignal(signal.SIGTERM)
    assert main(["metrics", "--confusion", "1,1,1,1"]) == EXIT_OK
    assert signal.getsignal(signal.SIGTERM) == before
    codes = []
    worker = threading.Thread(target=lambda: codes.append(
        main(["metrics", "--confusion", "1,1,1,1"])))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and codes == [EXIT_OK]
    assert signal.getsignal(signal.SIGTERM) == before
    capsys.readouterr()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_take_the_mode_of_the_umask(fixtures_dir, tmp_path, umask, mode):
    """Files are written through an owner-only temporary file, but each
    output gets the mode a new file gets under the process umask."""
    cpg = str(fixtures_dir / "toy_modbus.cpg.json")
    old = os.umask(umask)
    try:
        codes = [main(["report", "--config", str(fixtures_dir / "config_toy.json"), "--cpg", cpg,
                       "--outdir", str(tmp_path / "out")]),
                 main(["ingest", "--cpg", cpg, "--out", str(tmp_path / "canon.json")])]
    finally:
        os.umask(old)
    assert codes == [EXIT_OK, EXIT_OK]
    modes = {p.name: oct(p.stat().st_mode & 0o777)
             for p in [*(tmp_path / "out").iterdir(), tmp_path / "canon.json"]}
    assert len(modes) == 8 and set(modes.values()) == {oct(mode)}, modes


@pytest.mark.parametrize("bid", ["../escaped", "sub/evil", "..", ".", "nul\0byte"])
def test_report_rejects_binary_id_outside_outdir(capsys, fixtures_dir, tmp_path, bid):
    toy = json.loads((fixtures_dir / "toy_modbus.cpg.json").read_text(encoding="utf-8"))
    cpg = tmp_path / "named.cpg.json"
    cpg.write_text(json.dumps({**toy, "binary_id": bid}), encoding="utf-8")
    outdir = tmp_path / "run" / "out"
    outdir.mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    code, _, err = run(capsys, "report", "--config", str(fixtures_dir / "config_toy.json"),
                       "--cpg", str(cpg), "--outdir", str(outdir))
    assert code == EXIT_ERROR
    assert one_error_line(err)
    assert str(cpg) in err and repr(bid) in err
    assert sorted(tmp_path.rglob("*")) == before

def one_error_line(err):
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error:")


def truncated(text):
    return text[:len(text) // 2]


def without_entity_name(text):
    doc = json.loads(text)
    del doc["entities"][0]["name"]
    return json.dumps(doc)


@pytest.mark.parametrize("damage", [truncated, without_entity_name])
def test_forward_bad_kg_gives_one_error_line(capsys, fixtures_dir, toy_run, tmp_path,
                                             damage):
    text = (toy_run / "toy_modbus.kg.json").read_text(encoding="utf-8")
    kg = tmp_path / "kg.json"
    kg.write_text(damage(text), encoding="utf-8")
    code, _, err = run(capsys, "forward",
                       "--config", str(fixtures_dir / "config_toy.json"),
                       "--kg", str(kg), "--out", str(tmp_path / "emb.json"))
    assert code == EXIT_ERROR
    assert one_error_line(err)
    assert str(kg) in err


# config_toy.json's model, as a params file's config echo spells it.
TOY_MODEL = {"layers": 2, "heads": 4, "hidden_dim": 64, "max_dist": 6, "edge_types": 8,
             "input_dim": 384, "seed": 42}


def params_container(path, config, nan_in=None):
    """The toy model's weights under a hand-written ``config`` echo, with
    a NaN as the first value of tensor ``nan_in`` if one is named."""
    tensors = init_params(ModelConfig(**TOY_MODEL)).tensors
    if nan_in is not None:
        tensors[nan_in] = tensors[nan_in].copy()
        tensors[nan_in].flat[0] = np.nan
    meta = {"format": "entity-transformer-v1", "config": config}
    tensors["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **tensors)


@pytest.mark.parametrize("config", [{**TOY_MODEL, "edge_combine": "max"}, [TOY_MODEL],
                                    {**TOY_MODEL, "heads": 4.0}, {**TOY_MODEL, "layers": True}],
                         ids=["max_fold", "config_list", "float_heads", "bool_layers"])
def test_forward_bad_params_gives_one_error_line(capsys, fixtures_dir, toy_run, tmp_path,
                                                 config):
    params = tmp_path / "w.npz"
    params_container(params, config)
    cfg = write_config(tmp_path, fixtures_dir / "config_toy.json", params_path=str(params))
    code, _, err = run(capsys, "forward", "--config", str(cfg),
                       "--kg", str(toy_run / "toy_modbus.kg.json"),
                       "--out", str(tmp_path / "emb.json"))
    assert code == EXIT_ERROR
    assert one_error_line(err)
    assert str(params) in err
    assert not (tmp_path / "emb.json").exists()


def test_forward_rejects_non_finite_params(capsys, fixtures_dir, toy_run, tmp_path):
    params = tmp_path / "w.npz"
    params_container(params, TOY_MODEL, nan_in="w_input")
    cfg = write_config(tmp_path, fixtures_dir / "config_toy.json", params_path=str(params))
    code, _, err = run(capsys, "forward", "--config", str(cfg),
                       "--kg", str(toy_run / "toy_modbus.kg.json"),
                       "--out", str(tmp_path / "emb.json"))
    assert code == EXIT_ERROR
    assert one_error_line(err)
    assert f"{params}: tensor 'w_input' holds a non-finite value" in err
    assert not (tmp_path / "emb.json").exists()


def test_forward_params_with_legacy_sum_fold(capsys, fixtures_dir, toy_run, tmp_path):
    params = tmp_path / "w.npz"
    params_container(params, {**TOY_MODEL, "edge_combine": "sum"})
    cfg = write_config(tmp_path, fixtures_dir / "config_toy.json", params_path=str(params))
    code, _, _ = run(capsys, "forward", "--config", str(cfg),
                     "--kg", str(toy_run / "toy_modbus.kg.json"),
                     "--out", str(tmp_path / "emb.json"))
    assert code == EXIT_OK
    assert ((tmp_path / "emb.json").read_bytes()
            == (toy_run / "toy_modbus.embeddings.json").read_bytes())


# config_firmware.json's model, with the input width of its hash embeddings.
FIRMWARE_MODEL = {"layers": 2, "heads": 4, "hidden_dim": 64, "max_dist": 6,
                  "input_dim": 384, "seed": 42}


def test_report_with_the_seeded_model_saved_matches_the_seeded_report(capsys, fixtures_dir,
                                                                      tmp_path):
    # A saved init_params container is the model report draws when the
    # config names none: every binary file, stdout and the exit code agree.
    params = tmp_path / "w.npz"
    write_atomic(params, dumps_params(init_params(ModelConfig(**FIRMWARE_MODEL))))
    configs = {"seeded": fixtures_dir / "config_firmware.json",
               "loaded": write_config(tmp_path, fixtures_dir / "config_firmware.json",
                                      params_path=str(params))}
    outs = {}
    for name, cfg in configs.items():
        code = main(["report", "--config", str(cfg),
                     "--cpg", str(fixtures_dir / "firmware_update.cpg.json"),
                     "--outdir", str(tmp_path / name)])
        outs[name] = (code, capsys.readouterr().out)
    assert outs["loaded"] == outs["seeded"]
    assert outs["seeded"][0] == EXIT_ALERTS
    for suffix in ("cpg.json", "corpus.jsonl", "kg.json", "embeddings.json", "risk.json",
                   "alerts.json", "dot"):
        name = f"firmware_update.{suffix}"
        assert (tmp_path / "loaded" / name).read_bytes() == \
            (tmp_path / "seeded" / name).read_bytes(), name


@pytest.mark.parametrize("content", ['{"3": [0.1, 0.2', '{"3": "x"}'],
                         ids=["truncated", "string_vector"])
def test_match_bad_embeddings_gives_one_error_line(capsys, fixtures_dir, tmp_path,
                                                   content):
    emb = tmp_path / "emb.json"
    emb.write_text(content, encoding="utf-8")
    code, _, err = run(capsys, "match", "--kg-embeddings", str(emb),
                       "--repo", str(fixtures_dir / "fingerprints"),
                       "--out", str(tmp_path / "alerts.json"))
    assert code == EXIT_ERROR
    assert one_error_line(err)
    assert str(emb) in err


SCORE_BAD_KG = ["score", "--kg", "{bad}", "--out", "{tmp}/risk.json"]


def kg_text(entity=(), relation=()) -> str:
    """A two-entity KG with one relation; the given fields override the second entity's and
    the relation's."""
    return json.dumps({
        "entities": [{"id": 0, "name": "a", "label": "TOP", "members": [0]},
                     {"id": 1, "name": "b", "label": "TOP", "members": [1], **dict(entity)}],
        "relations": [{"src": 0, "rel_type": "calls", "dst": 1, "weight": 0.3,
                       **dict(relation)}]})


EXPORT_BAD_RISK = ["export-dot", "--kg", "{toy}/toy_modbus.kg.json", "--risk", "{bad}",
                   "--out", "{tmp}/kg.dot"]
RISK_ROW_FAULT = ("risk file {bad}: ranking row 0 needs an integer 'entity_id' and a finite "
                  "numeric 'score'")
MATCH_BAD_EMBEDDINGS = ["match", "--kg-embeddings", "{bad}", "--repo", "{fx}/fingerprints",
                        "--out", "{tmp}/alerts.json"]

MATCH_BAD_REPO = ["match", "--kg-embeddings", "{fw}/firmware_update.embeddings.json",
                  "--repo", "{tmp}/repo", "--out", "{tmp}/alerts.json"]
FINGERPRINT_VECTOR_FAULT = ("fingerprint file {bad}: every embedding must be a flat list of "
                            "finite numbers")
EXTRACT_BAD_EMBEDDINGS = ["fingerprint", "extract", "--embeddings", "{bad}", "--ids", "3",
                          "--name", "x", "--out", "{tmp}/fp.json"]
EMBEDDINGS_MIXED_DIMENSIONS = "embeddings file {bad}: vectors have mixed dimensions [1, 2]"
# (content, error) of a fingerprint file whose vectors differ in dimension.
FINGERPRINT_MIXED_DIMENSIONS = ('{"name": "x", "embeddings": [[0.5, 1], [0.5]]}',
                                "fingerprint file {bad}: vectors have mixed dimensions [1, 2]")
THRESHOLD_BAD_SCORES = ["threshold", "--scores", "{bad}", "--out", "{tmp}/th.json"]
SCORES_ROW_FAULT = ("scores file {{bad}}: row {row} needs a finite numeric 'score' and a "
                    "string 'label'")

BUILD_BAD_CORPUS = ["build-ssckg", "--cpg", "{fx}/toy_modbus.cpg.json", "--corpus", "{bad}",
                    "--out", "{tmp}/kg.json"]
CORPUS_TRAILER = '{"trailer": {"accepted": 0, "failed": 0, "rejected": 0, "total": 0}}\n'

REPORT_BAD_CONFIG = ["report", "--config", "{bad}", "--cpg", "{fx}/toy_modbus.cpg.json",
                     "--outdir", "{tmp}/out"]
# The firmware fixture config with one bad integer knob, and a report over it.
FIRMWARE_CONFIG = Path(__file__).resolve().parent.parent / "fixtures" / "config_firmware.json"
REPORT_FIRMWARE_BAD_CONFIG = ["report", "--config", "{bad}", "--cpg",
                              "{fx}/firmware_update.cpg.json", "--outdir", "{tmp}/out"]
INT64_FAULT = "config field '{}' must be a signed 64-bit integer, got 1180591620717411303424"
THRESHOLD_BAD_CONFIG = ["threshold", "--config", "{bad}", "--scores",
                        "{fx}/threshold_scores.json", "--out", "{tmp}/th.json"]
# Commands whose side config (SIDE_FILES) names the damaged file.
SCORE_SIDE_CONFIG = ["score", "--config", "{tmp}/cfg.json", "--kg", "{toy}/toy_modbus.kg.json",
                     "--out", "{tmp}/risk.json"]
LIFT_SIDE_CONFIG = ["lift", "--config", "{tmp}/cfg.json", "--cpg", "{fx}/toy_modbus.cpg.json",
                    "--out", "{tmp}/corpus.jsonl"]
# Float knobs, each as NaN and as Infinity: knob -> (JSON value around
# the bad number, text the error must name).
NON_FINITE_KNOBS = {
    **{knob: ("{}", f"config field '{knob}' must be a finite number, got {{}}")
       for knob in ("tau", "cve_match_threshold", "fpr_cap", "grid_lo", "dbscan_eps")},
    "risk_bands": ('{{"high": {}, "medium": 0.4}}',
                   "config field 'risk_bands' must be an object of finite numbers"),
}
GRID_FAULT = "threshold grid needs 0 <= grid_lo <= grid_hi <= 1, got grid_lo {lo} and grid_hi {hi}"
# report with file embeddings: the damaged file is the side config's embedding_path.
REPORT_FILE_EMBEDDINGS = ["report", "--config", "{tmp}/cfg.json", "--cpg",
                          "{fx}/toy_modbus.cpg.json", "--outdir", "{tmp}/out"]
INGEST_BAD_CPG = ["ingest", "--cpg", "{bad}", "--out", "{tmp}/c.json"]
# JSON nested deeper than the decoder recurses.
NESTED = "[" * 100_000 + "]" * 100_000

# Damaged input files for the commands that read them: (file, content
# as text or bytes, text the error must name, argv).  {bad} is the
# damaged file; {tmp}, {fx}, {toy} and {fw} are the scratch, fixture and
# report directories.
BAD_INPUTS = {
    "fingerprint_truncated": (
        "repo/bad.json", '{"name": "x", "embeddings": [[0.1, 0.2', "{bad}",
        ["match", "--kg-embeddings", "{fw}/firmware_update.embeddings.json",
         "--repo", "{tmp}/repo", "--out", "{tmp}/alerts.json"]),
    "fingerprint_string_vector": (
        "repo/bad.json", '{"name": "x", "embeddings": [["a"]]}', "{bad}",
        ["match", "--kg-embeddings", "{fw}/firmware_update.embeddings.json",
         "--repo", "{tmp}/repo", "--out", "{tmp}/alerts.json"]),
    "config_truncated": ("cfg.json", '{"seed": 4', "{bad}", [
        "report", "--config", "{bad}", "--cpg", "{fx}/toy_modbus.cpg.json",
        "--outdir", "{tmp}/out"]),
    "config_string_beta": ("cfg.json", '{"beta": "high"}', "beta", [
        "report", "--config", "{bad}", "--cpg", "{fx}/toy_modbus.cpg.json",
        "--outdir", "{tmp}/out"]),
    "config_string_command": ("cfg.json", '{"annotator_cmd": "tool"}', "annotator_cmd", [
        "report", "--config", "{bad}", "--cpg", "{fx}/toy_modbus.cpg.json",
        "--outdir", "{tmp}/out"]),
    "config_string_band": ("cfg.json", '{"risk_bands": {"high": "x"}}', "risk_bands", [
        "report", "--config", "{bad}", "--cpg", "{fx}/toy_modbus.cpg.json",
        "--outdir", "{tmp}/out"]),
    "config_tau_above_one": ("cfg.json", '{"tau": 1.5}', "'tau' must lie in [0, 1]", [
        "report", "--config", "{bad}", "--cpg", "{fx}/toy_modbus.cpg.json",
        "--outdir", "{tmp}/out"]),
    "config_tau_negative": ("cfg.json", '{"tau": -3.0}', "'tau' must lie in [0, 1]", [
        "report", "--config", "{bad}", "--cpg", "{fx}/toy_modbus.cpg.json",
        "--outdir", "{tmp}/out"]),
    "config_cve_threshold_above_one": (
        "cfg.json", '{"cve_match_threshold": 2}', "'cve_match_threshold' must lie in [0, 1]",
        ["report", "--config", "{bad}", "--cpg", "{fx}/toy_modbus.cpg.json",
         "--outdir", "{tmp}/out"]),
    # A JSON integer past the float range is no finite number.
    "config_huge_integer_tolerance": (
        "cfg.json", '{"tolerance": 1' + "0" * 400 + "}", "'tolerance' must be a finite number",
        ["report", "--config", "{bad}", "--cpg", "{fx}/toy_modbus.cpg.json",
         "--outdir", "{tmp}/out"]),
    "config_huge_integer_relation_weight": (
        "cfg.json", '{"relation_weights": {"calls": 1' + "0" * 400 + "}}",
        "'relation_weights' must be an object of finite numbers",
        ["lift", "--config", "{bad}", "--cpg", "{fx}/toy_modbus.cpg.json",
         "--out", "{tmp}/corpus.jsonl"]),
    "cves_truncated": ("cves.json", '[{"cve_id": "CVE-1", "descr', "{bad}", SCORE_SIDE_CONFIG),
    "cves_missing_description": ("cves.json", '[{"cve_id": "CVE-1"}]', "{bad}",
                                 SCORE_SIDE_CONFIG),
    "cves_numeric_id": ("cves.json", '[{"cve_id": 7, "description": null}]',
                        "CVE corpus {bad}: record 0 has non-string cve_id 7", SCORE_SIDE_CONFIG),
    "cves_null_description": ("cves.json", '[{"cve_id": "CVE-1", "description": null}]',
                              "CVE corpus {bad}: record 0 has non-string description None",
                              SCORE_SIDE_CONFIG),
    "rules_numeric_pattern": ("rules.json", '[{"pattern": 5, "label": "Memory"}]',
                              "rule file {bad}: rule 0 has non-string pattern 5",
                              LIFT_SIDE_CONFIG),
    "scores_truncated": ("scores.json", '[{"score": 0.5, "lab', "{bad}", [
        "threshold", "--scores", "{bad}", "--out", "{tmp}/th.json"]),
    "scores_missing_label": ("scores.json", '[{"score": 0.5}]', "{bad}", [
        "threshold", "--scores", "{bad}", "--out", "{tmp}/th.json"]),
    "scores_string_score": ("scores.json", '[{"score": "high", "label": "benign"}]', "{bad}", [
        "threshold", "--scores", "{bad}", "--out", "{tmp}/th.json"]),
    "cpg_string_function_id": (
        "cpg.json", '{"nodes": [{"id": 0, "kind": "Call", "function_id": "a", "block_id": 0}],'
        ' "edges": []}', "function_id", ["ingest", "--cpg", "{bad}", "--out", "{tmp}/c.json"]),
    "cpg_list_edge_endpoint": (
        "cpg.json", '{"nodes": [{"id": 0, "kind": "Call", "function_id": 0, "block_id": 0}],'
        ' "edges": [{"src": [0], "dst": 0, "kind": "Pdg"}]}', "edge at index 0",
        ["ingest", "--cpg", "{bad}", "--out", "{tmp}/c.json"]),
    "config_unknown_relation_weight": ("cfg.json", '{"relation_weights": {"bogus": 1.0}}',
                                       "bogus", REPORT_BAD_CONFIG),
    "config_unknown_edge_relation": ("cfg.json", '{"structural_edge_labels": {"call": "x"}}',
                                     "structural_edge_labels", REPORT_BAD_CONFIG),
    "config_beta_out_of_range": ("cfg.json", '{"beta": 7.0}', "beta", REPORT_BAD_CONFIG),
    "config_heads_not_dividing": ("cfg.json", '{"model_heads": 3}', "3 heads",
                                  REPORT_BAD_CONFIG),
    "config_negative_dbscan_eps": ("cfg.json", '{"dbscan_eps": -1.0}', "eps",
                                   REPORT_BAD_CONFIG),
    "config_negative_seed": ("cfg.json", '{"seed": -1}', "seed must be non-negative, got -1",
                             REPORT_BAD_CONFIG),
    # A billion layers of the default model, rejected before a weight is drawn.
    "config_model_past_2_32_weights": (
        "cfg.json", '{"model_layers": 1000000000}',
        "error: the model would have 788224000099568 weights, more than 2**32",
        REPORT_BAD_CONFIG),
    **{f"config_{word}_{knob}": ("cfg.json", f'{{"{knob}": {value.format(token)}}}',
                                 needle.format(shown), REPORT_BAD_CONFIG)
       for knob, (value, needle) in NON_FINITE_KNOBS.items()
       for word, token, shown in (("nan", "NaN", "nan"), ("infinite", "Infinity", "inf"))},
    "config_grid_above_one": ("cfg.json", '{"grid_hi": 1e9}',
                              GRID_FAULT.format(lo=0.5, hi=1e9), THRESHOLD_BAD_CONFIG),
    "config_grid_below_zero": ("cfg.json", '{"grid_lo": -0.5}',
                               GRID_FAULT.format(lo=-0.5, hi=0.95), THRESHOLD_BAD_CONFIG),
    "config_grid_reversed": ("cfg.json", '{"grid_lo": 0.9, "grid_hi": 0.5}',
                             GRID_FAULT.format(lo=0.9, hi=0.5), THRESHOLD_BAD_CONFIG),
    "config_grid_zero_step": ("cfg.json", '{"grid_step": 0}',
                              "threshold grid_step must round to at least one tick",
                              THRESHOLD_BAD_CONFIG),
    "cpg_boolean_id": (
        "cpg.json", '{"nodes": [{"id": true, "kind": "Call", "function_id": 0,'
        ' "block_id": false}], "edges": []}', "non-integer id True",
        ["ingest", "--cpg", "{bad}", "--out", "{tmp}/c.json"]),
    "cpg_id_beyond_int64": (
        "cpg.json", '{"nodes": [{"id": 12345678901234567890123, "kind": "Call",'
        ' "function_id": 0, "block_id": 0}], "edges": []}',
        "non-integer id 12345678901234567890123",
        ["ingest", "--cpg", "{bad}", "--out", "{tmp}/c.json"]),
    "config_band_missing_medium": ("cfg.json", '{"risk_bands": {"high": 0.5}}', "risk_bands",
                                   REPORT_BAD_CONFIG),
    "config_zero_relation_weight": ("cfg.json", '{"relation_weights": {"calls": 0.0}}',
                                    "relation_weights", REPORT_BAD_CONFIG),
    "config_embedding_dimension_below_two": ("cfg.json", '{"embedding_dimension": 1}',
                                             "embedding_dimension", REPORT_BAD_CONFIG),
    "config_nan_relation_weight": ("cfg.json", '{"relation_weights": {"calls": NaN}}',
                                   "relation_weights", REPORT_BAD_CONFIG),
    "config_huge_embedding_dimension": (
        "cfg.json", config_text(FIRMWARE_CONFIG, embedding_dimension=2 ** 70),
        INT64_FAULT.format("embedding_dimension"), REPORT_FIRMWARE_BAD_CONFIG),
    "config_huge_hidden_dim": (
        "cfg.json", config_text(FIRMWARE_CONFIG, model_hidden_dim=2 ** 70, model_heads=1),
        INT64_FAULT.format("model_hidden_dim"), REPORT_FIRMWARE_BAD_CONFIG),
    "config_huge_max_dist": (
        "cfg.json", config_text(FIRMWARE_CONFIG, model_max_dist=2 ** 70),
        INT64_FAULT.format("model_max_dist"), REPORT_FIRMWARE_BAD_CONFIG),
    "config_max_dist_past_any_array": (
        "cfg.json", config_text(FIRMWARE_CONFIG, model_max_dist=2 ** 62),
        "the model would have 18446744073709675688 weights, more than 2**32",
        REPORT_FIRMWARE_BAD_CONFIG),
    "config_embedding_dimension_past_any_array": (
        "cfg.json", config_text(FIRMWARE_CONFIG, embedding_dimension=2 ** 62),
        "hash embedder dimension 4611686018427387904 is larger than any array",
        REPORT_FIRMWARE_BAD_CONFIG),
    "config_embedding_dimension_past_memory": (  # numpy's MemoryError, as one line
        "cfg.json", config_text(FIRMWARE_CONFIG, embedding_dimension=2 ** 40),
        "error: Unable to allocate 8.00 TiB", REPORT_FIRMWARE_BAD_CONFIG),
    "kg_boolean_src": ("kg.json", kg_text(relation={"src": True}),
                       "{bad}: relation at index 0 has non-integer src True", SCORE_BAD_KG),
    "kg_fractional_src": ("kg.json", kg_text(relation={"src": 0.5}),
                          "{bad}: relation at index 0 has non-integer src 0.5", SCORE_BAD_KG),
    "kg_string_dst": ("kg.json", kg_text(relation={"dst": "1"}),
                      "{bad}: relation at index 0 has non-integer dst '1'", SCORE_BAD_KG),
    "kg_numeric_cve_id": ("kg.json", kg_text(relation={"rel_type": "vulnerable_to", "dst": 7}),
                          "{bad}: relation at index 0 is vulnerable_to", SCORE_BAD_KG),
    "kg_fractional_entity_id": ("kg.json", kg_text(entity={"id": 0.7}),
                                "{bad}: entity at index 1 has non-integer id 0.7",
                                SCORE_BAD_KG),
    "kg_string_member": ("kg.json", kg_text(entity={"members": ["a"]}),
                         "{bad}: entity at index 1 has non-integer member 'a'", SCORE_BAD_KG),
    "kg_nan_weight": ("kg.json", kg_text(relation={"weight": float("nan")}),
                      "{bad}: relation at index 0: relation weight must be finite and positive",
                      SCORE_BAD_KG),
    "kg_infinite_weight": ("kg.json", kg_text(relation={"weight": float("-inf")}),
                           "{bad}: relation at index 0: relation weight must be finite and "
                           "positive", SCORE_BAD_KG),
    "kg_zero_weight": ("kg.json", kg_text(relation={"weight": 0.0}),
                       "{bad}: relation at index 0: relation weight must be finite and positive",
                       SCORE_BAD_KG),
    "kg_dangling_target": ("kg.json", kg_text(relation={"dst": 999}),
                           "{bad}: relation at index 0: target 999 is not an entity",
                           SCORE_BAD_KG),
    "kg_string_external": ("kg.json", kg_text(entity={"external": "false"}),
                           "{bad}: entity at index 1 has non-boolean external 'false'",
                           SCORE_BAD_KG),
    "kg_null_summary": ("kg.json", kg_text(entity={"summary": None}),
                        "{bad}: entity at index 1 has non-string summary None", SCORE_BAD_KG),
    "kg_numeric_name": ("kg.json", kg_text(entity={"name": 5}),
                        "{bad}: entity at index 1 has non-string name 5", SCORE_BAD_KG),
    "kg_string_cluster_id": ("kg.json", kg_text(entity={"cluster_id": "x"}),
                             "{bad}: entity at index 1 has cluster_id 'x', which is neither "
                             "an integer nor null", SCORE_BAD_KG),
    "kg_boolean_cluster_id": ("kg.json", kg_text(entity={"cluster_id": True}),
                              "{bad}: entity at index 1 has cluster_id True", SCORE_BAD_KG),
    "kg_entities_object": ("kg.json", '{"entities": {"0": {}}, "relations": []}',
                           "{bad}: 'entities' must be a list", SCORE_BAD_KG),
    "kg_numeric_label": ("kg.json", kg_text(entity={"label": 5}),
                         "{bad}: entity at index 1 has non-string label 5", SCORE_BAD_KG),
    "kg_nested_member": ("kg.json", kg_text(entity={"members": [[1]]}),
                         "{bad}: entity at index 1 has non-integer member [1]", SCORE_BAD_KG),
    "kg_integer_members": ("kg.json", kg_text(entity={"members": 5}),
                           "{bad}: entity at index 1 has members 5, which is not a list",
                           SCORE_BAD_KG),
    "kg_integer_clustering": ("kg.json", json.dumps({**json.loads(kg_text()), "clustering": 5}),
                              "{bad}: 'clustering' must be an object or null, got 5",
                              SCORE_BAD_KG),
    "kg_nested_embedding": ("kg.json", kg_text(entity={"embedding": [[0.5]]}),
                            "{bad}: entity at index 1 has an embedding that is not a flat list "
                            "of numbers", SCORE_BAD_KG),
    "kg_nan_embedding": ("kg.json", kg_text(entity={"embedding": [0.5, float("nan")]}),
                         "{bad}: entity at index 1 has an embedding with a non-finite value",
                         SCORE_BAD_KG),
    "risk_empty_object": ("risk.json", "{}",
                          "risk file {bad} must be an object with a 'ranking' list",
                          EXPORT_BAD_RISK),
    "risk_list": ("risk.json", "[1, 2]", "risk file {bad} must be an object with a 'ranking' list",
                  EXPORT_BAD_RISK),
    "risk_string_entity_id": ("risk.json", '{"ranking": [{"entity_id": "a", "score": 1}]}',
                              RISK_ROW_FAULT, EXPORT_BAD_RISK),
    "risk_missing_score": ("risk.json", '{"ranking": [{"entity_id": 1}]}', RISK_ROW_FAULT,
                           EXPORT_BAD_RISK),
    "risk_nan_score": ("risk.json", '{"ranking": [{"entity_id": 1, "score": NaN}]}',
                       RISK_ROW_FAULT, EXPORT_BAD_RISK),
    "embeddings_nan_value": ("emb.json", '{"3": [0.1, NaN]}', "embeddings file {bad}: entity 3 "
                             "vector holds a non-finite value", MATCH_BAD_EMBEDDINGS),
    "embeddings_infinite_value": ("emb.json", '{"3": [-Infinity, 0.2]}', "embeddings file "
                                  "{bad}: entity 3 vector holds a non-finite value",
                                  MATCH_BAD_EMBEDDINGS),
    "corpus_string_rejected_count": (
        "corpus.jsonl", '{"trailer": {"accepted": 0, "failed": 0, "rejected": "x", "total": 0}}\n',
        "corpus file {bad} line 1: trailer", BUILD_BAD_CORPUS),
    "corpus_bare_number_line": ("corpus.jsonl", "5\n" + CORPUS_TRAILER,
                                "corpus file {bad} line 1 must hold an object",
                                BUILD_BAD_CORPUS),
    "corpus_string_claim_end": (
        "corpus.jsonl",
        '{"claims": [["a", 1]], "function_id": "0", "label": "TOP", "summary": ""}\n'
        + CORPUS_TRAILER, "corpus file {bad} line 1: annotation for function 0 has claim",
        BUILD_BAD_CORPUS),
    "corpus_null_summary": (
        "corpus.jsonl", '{"claims": [], "function_id": "0", "label": "TOP", "summary": null}\n'
        + CORPUS_TRAILER, "corpus file {bad} line 1: annotation for function 0 has non-string "
        "summary None", BUILD_BAD_CORPUS),
    "corpus_null_function_id": (
        "corpus.jsonl", '{"claims": [], "function_id": null, "label": "TOP", "summary": ""}\n'
        + CORPUS_TRAILER, "corpus file {bad} line 1 has non-string function_id None",
        BUILD_BAD_CORPUS),
    "replay_numeric_label": (
        "replay.json", '{"0": {"label": 3, "summary": "s"}}', "replay file {bad}: annotation "
        "for function 0 has non-string label 3", LIFT_SIDE_CONFIG),
    "replay_number_entry": (
        "replay.json", '{"0": 5}', "replay file {bad}: annotation for function 0 must be an "
        "object", LIFT_SIDE_CONFIG),
    "lattice_number_category": (
        "lattice.json", '{"Hardware": 5}', "lattice file {bad}: lattice category 'Hardware'",
        LIFT_SIDE_CONFIG),
    "cpg_nested": ("cpg.json", NESTED, "CPG file {bad}: not valid JSON: maximum recursion "
                   "depth exceeded", INGEST_BAD_CPG),
    "kg_nested": ("kg.json", NESTED, "KG file {bad} is not valid JSON: maximum recursion depth "
                  "exceeded", SCORE_BAD_KG),
    "corpus_nested": ("corpus.jsonl", NESTED + "\n" + CORPUS_TRAILER,
                      "corpus file {bad} line 1: maximum recursion depth exceeded",
                      BUILD_BAD_CORPUS),
    "config_nested": ("cfg.json", NESTED, "config file {bad} is not valid JSON: maximum "
                      "recursion depth exceeded", REPORT_BAD_CONFIG),
    "cpg_missing_kind": (
        "cpg.json", '{"nodes": [{"id": 0, "function_id": 0, "block_id": 0}], "edges": []}',
        "CPG file {bad}: node at index 0 is missing required field 'kind'", INGEST_BAD_CPG),
    "cpg_null_binary_id": ("cpg.json", '{"binary_id": null, "nodes": [], "edges": []}',
                           "CPG file {bad}: 'binary_id' must be a string, got None",
                           INGEST_BAD_CPG),
    "kg_null_source_binary": ("kg.json", json.dumps({**json.loads(kg_text()),
                                                     "source_binary": None}),
                              "KG file {bad}: 'source_binary' must be a string, got None",
                              SCORE_BAD_KG),
    "embeddings_numeric_string_value": ("emb.json", '{"3": ["0.5", 1]}',
                                        "embeddings file {bad}: entity 3 vector must be a flat "
                                        "list of numbers", MATCH_BAD_EMBEDDINGS),
    "embeddings_boolean_value": ("emb.json", '{"3": [0.5, 1], "4": [true, false]}',
                                 "embeddings file {bad}: entity 4 vector must be a flat list "
                                 "of numbers", MATCH_BAD_EMBEDDINGS),
    "embedding_file_numeric_string_value": ("emb.json", '{"a": [0.5, 1], "b": ["0.5", 1]}',
                                            "embedding file {bad}: key 'b' must map to a flat "
                                            "list of numbers", REPORT_FILE_EMBEDDINGS),
    "embedding_file_boolean_value": ("emb.json", '{"a": [true, false]}',
                                     "embedding file {bad}: key 'a' must map to a flat list "
                                     "of numbers", REPORT_FILE_EMBEDDINGS),
    "embedding_file_empty_vector": ("emb.json", '{"a": []}',
                                    "embedding file {bad}: key 'a' maps to an empty vector",
                                    REPORT_FILE_EMBEDDINGS),
    "embeddings_padded_key": ("emb.json", '{"03": [0.1, 0.2]}',
                              "embeddings file {bad}: key '03' is not an entity id",
                              MATCH_BAD_EMBEDDINGS),
    "cpg_not_utf8": ("cpg.json", b'{"nodes": [], "edges": [], "binary_id": "\xff"}',
                     "CPG file {bad}: not valid JSON: 'utf-8' codec can't decode",
                     INGEST_BAD_CPG),
    "corpus_not_utf8": ("corpus.jsonl", b"\xff\n" + CORPUS_TRAILER.encode(),
                        "corpus file {bad} is not valid UTF-8", BUILD_BAD_CORPUS),
    "fingerprint_null_name": ("repo/bad.json", '{"name": null, "embeddings": [[0.5]]}',
                              "fingerprint file {bad}: 'name' must be a string, got None",
                              MATCH_BAD_REPO),
    "fingerprint_numeric_provenance": (
        "repo/bad.json", '{"name": "x", "provenance": 5, "embeddings": [[0.5]]}',
        "fingerprint file {bad}: 'provenance' must be a string, got 5", MATCH_BAD_REPO),
    "fingerprint_numeric_string_value": (
        "repo/bad.json", '{"name": "x", "embeddings": [["0.5", 1]]}',
        FINGERPRINT_VECTOR_FAULT, MATCH_BAD_REPO),
    "fingerprint_boolean_value": (
        "repo/bad.json", '{"name": "x", "embeddings": [[0.5, true, 1]]}',
        FINGERPRINT_VECTOR_FAULT, MATCH_BAD_REPO),
    "fingerprint_nan_value": ("repo/bad.json", '{"name": "x", "embeddings": [[0.5], [NaN]]}',
                              FINGERPRINT_VECTOR_FAULT, MATCH_BAD_REPO),
    "fingerprint_value_past_float_range": (
        "repo/bad.json", '{"name": "x", "embeddings": [[1' + "0" * 400 + ']]}',
        FINGERPRINT_VECTOR_FAULT, MATCH_BAD_REPO),
    "scores_string_number": ("scores.json", '[{"score": "0.9", "label": "malicious"}]',
                             SCORES_ROW_FAULT.format(row=0), THRESHOLD_BAD_SCORES),
    "scores_nan": ("scores.json", '[{"score": 0.1, "label": "benign"}, '
                   '{"score": NaN, "label": "malicious"}]', SCORES_ROW_FAULT.format(row=1),
                   THRESHOLD_BAD_SCORES),
    "scores_boolean": ("scores.json", '[{"score": true, "label": "malicious"}]',
                       SCORES_ROW_FAULT.format(row=0), THRESHOLD_BAD_SCORES),
    "scores_numeric_label": ("scores.json", '[{"score": 0.5, "label": 1}]',
                             SCORES_ROW_FAULT.format(row=0), THRESHOLD_BAD_SCORES),
    "scores_object": ("scores.json", '{"score": 0.5, "label": "benign"}',
                      "scores file {bad} must be a JSON list", THRESHOLD_BAD_SCORES),
    # One dimension per file and ids within int64, checked when the file is read.
    "embeddings_mixed_dimensions": ("emb.json", '{"3": [0.5, 1], "4": [0.5]}',
                                    EMBEDDINGS_MIXED_DIMENSIONS, MATCH_BAD_EMBEDDINGS),
    "embeddings_mixed_dimensions_extract": ("emb.json", '{"3": [0.5, 1], "4": [0.5]}',
                                            EMBEDDINGS_MIXED_DIMENSIONS, EXTRACT_BAD_EMBEDDINGS),
    "embeddings_key_past_int64": ("emb.json", '{"3": [0.5], "9223372036854775808": [0.5]}',
                                  "embeddings file {bad}: entity id 9223372036854775808 does "
                                  "not fit in int64", MATCH_BAD_EMBEDDINGS),
    "fingerprint_mixed_dimensions": ("repo/bad.json", *FINGERPRINT_MIXED_DIMENSIONS,
                                     MATCH_BAD_REPO),
    "embeddings_empty_vector": ("emb.json", '{"3": [], "4": []}',
                                "embeddings file {bad}: entity 3 vector is empty",
                                EXTRACT_BAD_EMBEDDINGS),
    "fingerprint_empty_vector": ("repo/bad.json", '{"name": "x", "embeddings": [[], []]}',
                                 "fingerprint file {bad}: embedding 0 is empty", MATCH_BAD_REPO),
    "fingerprint_mixed_dimensions_report": (
        "repo/bad.json", *FINGERPRINT_MIXED_DIMENSIONS,
        ["report", "--config", "{tmp}/cfg.json", "--cpg", "{fx}/toy_modbus.cpg.json",
         "--outdir", "{tmp}/out"]),
    "fingerprint_entity_id_past_int64": (
        "repo/bad.json", '{"name": "x", "embeddings": [[0.5], [0.5]],'
        ' "entity_ids": [0, -9223372036854775809]}',
        "fingerprint file {bad}: entity id -9223372036854775809 does not fit in int64",
        MATCH_BAD_REPO),
    "fingerprint_non_integer_entity_id": (
        "repo/bad.json", '{"name": "x", "embeddings": [[0.1], [0.2], [0.3]],'
        ' "entity_ids": [true, 1.5, "2"]}', "{bad}: entity id True is not an integer",
        ["match", "--kg-embeddings", "{fw}/firmware_update.embeddings.json",
         "--repo", "{tmp}/repo", "--out", "{tmp}/alerts.json"]),
}

# Files a probe reads beside the damaged one, by probe: name -> content.
SIDE_FILES = {
    "lattice_number_category": {"cfg.json": '{"lattice_path": "lattice.json"}'},
    "rules_numeric_pattern": {"cfg.json": '{"rules_path": "rules.json"}'},
    **{probe: {"cfg.json": '{"annotator_type": "replay", "replay_path": "replay.json"}'}
       for probe in ("replay_numeric_label", "replay_number_entry")},
    **{probe: {"cfg.json": '{"cves_path": "cves.json"}'}
       for probe in ("cves_truncated", "cves_missing_description", "cves_numeric_id",
                     "cves_null_description")},
    **{probe: {"cfg.json": '{"embedding_type": "file", "embedding_path": "emb.json"}'}
       for probe in ("embedding_file_numeric_string_value", "embedding_file_boolean_value",
                     "embedding_file_empty_vector")},
    "fingerprint_mixed_dimensions_report": {"cfg.json": '{"fingerprints_dir": "repo"}'},
}


@pytest.mark.parametrize("probe", sorted(BAD_INPUTS))
def test_bad_input_file_gives_one_error_line(capsys, fixtures_dir, toy_run, firmware_run,
                                             tmp_path, probe):
    name, content, needle, argv = BAD_INPUTS[probe]
    bad = tmp_path / name
    bad.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content, encoding="utf-8")
    for side, text in SIDE_FILES.get(probe, {}).items():
        (tmp_path / side).write_text(text, encoding="utf-8")
    places = {"bad": bad, "tmp": tmp_path, "fx": fixtures_dir, "toy": toy_run,
              "fw": firmware_run}
    code, _, err = run(capsys, *(arg.format(**places) for arg in argv))
    assert code == EXIT_ERROR
    assert one_error_line(err)
    assert needle.format(**places) in err
    assert not any((tmp_path / "out").glob("*"))  # rejected before any stage wrote
    for flag in ("--out", "--outdir"):
        if flag in argv:
            assert not Path(argv[argv.index(flag) + 1].format(**places)).exists()
