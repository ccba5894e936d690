import errno
import gc
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import netreduce
from netreduce import cli
from netreduce.cli import _forked_map, main
from netreduce.config import build_model, config_from_dict, load_config
from netreduce.errors import ConfigError, ReductionFailed
from netreduce.evaluation import band_error, band_suprema, sweep
from netreduce.io import read_matrix_csv
from netreduce.reduction import ReducedModel, run_algorithm_1
from netreduce.simulate import realize_reduced
from netreduce.spectral import _DENSE_MAX_N

from conftest import EQ15_Q, EQ15_SIZES, EQ15_W, step_outputs


def base_config(**overrides):
    doc = {
        "wsbm": {"sizes": list(EQ15_SIZES), "q": EQ15_Q, "w": EQ15_W},
        "nodes": {"preset": "swing", "m_range": [1.0, 3.0], "d_range": [0.5, 1.5]},
        "coupling": {"num": [1.0], "den": [0.0, 1.0]},
        "k": 3,
        "eta": 10.0,
        "omega_min": 1e-3,
        "grid_size": 40,
        "seeds": [0],
        "sim": {"dt": 1e-3, "t_end": 3.0, "input_node": 1},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            p = os.path.join(dirpath, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


class TestConfig:
    def test_round_trip_idempotent(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_config()))
        doc = cfg.to_dict()
        cfg2 = config_from_dict(doc)
        assert cfg2.to_dict() == doc

    def test_missing_eta_named(self, tmp_path):
        doc = base_config()
        del doc["eta"]
        with pytest.raises(ConfigError, match="eta"):
            load_config(write_config(tmp_path, doc))

    def test_bad_nodes_preset(self, tmp_path):
        doc = base_config(nodes={"preset": "mystery"})
        with pytest.raises(ConfigError, match="nodes.preset"):
            load_config(write_config(tmp_path, doc))

    def test_explicit_nodes_accepted(self, tmp_path):
        tfs = [{"num": [1.0], "den": [1.0, 1.0]}] * 80
        cfg = load_config(write_config(tmp_path, base_config(nodes={"preset": "explicit", "tfs": tfs})))
        assert cfg.nodes["preset"] == "explicit"

    def test_explicit_node_count_must_match_n(self, tmp_path):
        tfs = [{"num": [1.0], "den": [1.0, 1.0]}] * 79
        doc = base_config(nodes={"preset": "explicit", "tfs": tfs})
        with pytest.raises(ConfigError, match="nodes.tfs.*79 entries for 80 nodes"):
            load_config(write_config(tmp_path, doc))

    def test_explicit_nodes_fix_the_scale(self, tmp_path):
        tfs = [{"num": [1.0], "den": [1.0, 1.0]}] * 80
        doc = base_config(nodes={"preset": "explicit", "tfs": tfs}, scales=[1, 2])
        with pytest.raises(ConfigError, match="'scales'"):
            load_config(write_config(tmp_path, doc))

    def test_missing_file_named(self, tmp_path):
        path = str(tmp_path / "absent.json")
        with pytest.raises(ConfigError, match="absent.json"):
            load_config(path)
        assert main(["reduce", "--config", path, "--out", str(tmp_path / "x")]) == 1

    def test_nan_block_probability_exit_code(self, tmp_path):
        doc = base_config()
        doc["wsbm"]["q"] = [[float("nan"), 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]
        cfg = write_config(tmp_path, doc)
        assert "NaN" in (tmp_path / "config.json").read_text()
        with pytest.raises(ConfigError, match="wsbm.*finite"):
            load_config(cfg)
        assert main(["reduce", "--config", cfg, "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize(
        "field,value",
        [
            ("eta", float("nan")),
            ("omega_min", float("nan")),
            ("grid_size", float("inf")),
            ("grid_size", 2.5),
            ("restarts", float("inf")),
            ("restarts", 2.5),
            ("sim.t_end", float("inf")),
            ("sim.dt", float("nan")),
            ("sim.input_node", 1.5),
            ("nodes.m_range", [float("nan"), 3.0]),
            ("nodes.d_range", [0.5, float("inf")]),
            ("coupling", {"num": [float("nan")], "den": [0.0, 1.0]}),
        ],
    )
    def test_non_finite_or_fractional_number_exit_code(self, tmp_path, field, value):
        doc = base_config()
        *parents, key = field.split(".")
        owner = doc
        for name in parents:
            owner = owner[name]
        owner[key] = value
        cfg = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match=f"'{field}'"):
            load_config(cfg)
        for command in ("reduce", "evaluate"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize(
        "field,value",
        [
            ("nodes", 5),
            ("sim", 5),
            ("nodes.m_range", 5),
            ("nodes.d_range", 5),
            ("k", True),
            ("seeds", [True]),
            ("scales", [True]),
        ],
    )
    def test_wrong_json_type_exit_code(self, tmp_path, field, value):
        # a section that is no object, a range that is no list, and a bool
        # where an integer belongs are config errors naming the field
        doc = base_config()
        *parents, key = field.split(".")
        owner = doc
        for name in parents:
            owner = owner[name]
        owner[key] = value
        cfg = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match=f"'{field}'"):
            load_config(cfg)
        assert main(["reduce", "--config", cfg, "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("command", ["generate", "reduce", "evaluate", "simulate", "experiment"])
    def test_negative_seed_exit_code(self, tmp_path, capsys, command):
        # numpy's generators take no negative seed
        bad = write_config(tmp_path, base_config(seeds=[0, -1]))
        with pytest.raises(ConfigError, match="'seeds'"):
            load_config(bad)
        good = write_config(tmp_path, base_config(), name="good.json")
        out = tmp_path / "x"
        assert main([command, "--config", bad, "--out", str(out)]) == 1
        assert main([command, "--config", good, "--seed", "-1", "--out", str(out)]) == 1
        assert "'--seed'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_code(self, tmp_path, capsys, jobs):
        out = tmp_path / "x"
        args = ["experiment", "--config", write_config(tmp_path, base_config()), "--jobs", jobs]
        assert main([*args, "--out", str(out)]) == 1
        assert "'--jobs'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "reduce", "evaluate", "simulate"])
    def test_jobs_is_an_experiment_option(self, tmp_path, capsys, command):
        out = tmp_path / "x"
        args = [command, "--config", write_config(tmp_path, base_config()), "--jobs", "2"]
        with pytest.raises(SystemExit) as info:
            main([*args, "--out", str(out)])
        assert info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not out.exists()

    def test_out_that_cannot_be_a_directory_exit_code(self, tmp_path, capsys, monkeypatch):
        # an existing file, and a path below one; reported before any work
        monkeypatch.setattr("netreduce.cli.sample_adjacency", None)
        cfg = write_config(tmp_path, base_config())
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        for out, reason in ((blocker, "File exists"), (blocker / "run", "Not a directory")):
            assert main(["generate", "--config", cfg, "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: option '--out': {reason}\n"
        assert blocker.read_text() == "kept"

    @pytest.mark.parametrize(
        "case, named",
        [
            ("missing-field", "config field 'k': missing"),
            ("below-minimum", "config field 'grid_size': must be >= 2"),
            ("omega_min-not-below-eta", "config field 'omega_min': must be below 'eta'"),
            ("root-not-object", "config root: expected an object"),
            ("not-json", "config file is not valid JSON"),
        ],
    )
    def test_invalid_document_exit_code(self, tmp_path, capsys, case, named):
        no_k = base_config()
        del no_k["k"]
        text = {
            "missing-field": json.dumps(no_k),
            "below-minimum": json.dumps(base_config(grid_size=1)),
            "omega_min-not-below-eta": json.dumps(base_config(omega_min=10.0)),
            "root-not-object": json.dumps([base_config()]),
            "not-json": json.dumps(base_config())[:-1],
        }[case]
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert str(info.value).startswith(named)
        assert main(["reduce", "--config", str(path), "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {named}")

    def test_input_node_outside_network(self, tmp_path):
        doc = base_config(sim={"dt": 1e-3, "t_end": 3.0, "input_node": 80})
        with pytest.raises(ConfigError, match="sim.input_node"):
            load_config(write_config(tmp_path, doc))

    def test_step_longer_than_horizon(self, tmp_path):
        doc = base_config(sim={"dt": 0.5, "t_end": 0.1, "input_node": 1})
        with pytest.raises(ConfigError, match="sim.dt"):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("dt", [0.4, 0.3])
    def test_step_not_dividing_horizon(self, tmp_path, dt):
        # 1.0 / 0.4 would stop the simulation at t = 0.8
        doc = base_config(sim={"dt": dt, "t_end": 1.0, "input_node": 1})
        with pytest.raises(ConfigError, match="sim.dt"):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("t_end,dt", [(4.0, 1e-3), (30.0, 1e-3), (0.3, 0.1)])
    def test_whole_step_horizon_within_roundoff_accepted(self, tmp_path, t_end, dt):
        # 0.3 / 0.1 = 2.9999999999999996 in floating point
        doc = base_config(sim={"dt": dt, "t_end": t_end, "input_node": 1})
        assert load_config(write_config(tmp_path, doc)).sim.t_end == t_end


class TestGenerate:
    def test_eq15_outputs(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        lap = read_matrix_csv(out / "laplacian_seed0.csv")
        assert lap.shape == (80, 80)
        assert np.abs(lap.sum(axis=1)).max() < 1e-9
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["k"] == 3
        assert manifest["sizes"] == [20, 40, 20]

    def test_zero_probability_gives_zero_laplacian(self, tmp_path):
        doc = base_config()
        doc["wsbm"]["q"] = [[0.0] * 3] * 3
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        np.testing.assert_array_equal(read_matrix_csv(out / "laplacian_seed0.csv"), 0.0)

    def test_byte_identical_rerun(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", cfg, "--out", str(out1)])
        main(["generate", "--config", cfg, "--out", str(out2)])
        assert tree_bytes(out1) == tree_bytes(out2)

    def test_os_error_while_writing_exit_code(self, tmp_path, capsys):
        # the manifest's path is taken by a directory
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        (out / "manifest.json").mkdir(parents=True)
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: IsADirectoryError: ")
        assert "manifest.json" in err

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["generate", "--config", cfg, "--out", str(out1), "--seed", "5"])
        main(["generate", "--config", cfg, "--out", str(out2)])
        assert (out1 / "laplacian_seed5.csv").exists()
        assert tree_bytes(out1) != tree_bytes(out2)


class TestReduce:
    def test_k1_trivial_reduction(self, tmp_path):
        cfg = write_config(tmp_path, base_config(k=1))
        out = tmp_path / "run"
        assert main(["reduce", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "reduced_seed0.json").read_text())
        assert doc["k"] == 1
        assert abs(doc["l_k"][0][0]) < 1e-9

    def test_eq15_reduction_document(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        assert main(["reduce", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "reduced_seed0.json").read_text())
        assert doc["k"] == 3
        assert len(doc["aggregates"]) == 3
        assert sorted(len(a["members"]) for a in doc["aggregates"]) == [20, 20, 40]
        assert doc["clustering_matches_true"] is True
        emb = read_matrix_csv(out / "embedding_seed0.csv")
        assert emb.shape == (80, 3)
        # the CSV is a second copy of the document's embedding
        assert np.asarray(doc["embedding"]).tobytes() == emb.tobytes()

    def test_document_read_back_evaluates_as_written(self, tmp_path):
        # a model read from reduced_seed0.json gives the band reports and
        # the realization of the model reduced in process, bit for bit
        doc = base_config()
        out = tmp_path / "run"
        assert main(["reduce", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        with open(out / "reduced_seed0.json") as fh:
            read = ReducedModel.from_dict(json.load(fh))
        config = config_from_dict(doc)
        model, _, _, reduced, _ = cli._reduce_one(config, 0)
        sw = sweep(model, cli._grid(config))
        got, want = band_error(model, read, sw), band_error(model, reduced, sw)
        assert got.rows() == want.rows()
        for name in ("hinf_t_yu", "hinf_t_hat_k", "err_struct", "failures"):
            assert getattr(got, name) == getattr(want, name)
        got, want = band_suprema(model, read, sw), band_suprema(model, reduced, sw)
        for name in ("sup_err", "bound_satisfied", "failures"):
            assert getattr(got, name) == getattr(want, name)
        got, want = realize_reduced(read), realize_reduced(reduced)
        for name in "abcd":
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_rerun_identical(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["reduce", "--config", cfg, "--out", str(out1)])
        main(["reduce", "--config", cfg, "--out", str(out2)])
        assert tree_bytes(out1) == tree_bytes(out2)


def all_gap_config(tmp_path):
    # a two-point grid {1, 2} and two nodes whose inverses have poles at
    # s = j and s = 2j: every grid frequency is a gap
    doc = base_config(omega_min=1.0, eta=2.0, grid_size=2)
    tfs = [{"num": [1.0], "den": [1.0, 1.0]}] * 80
    tfs[0] = {"num": [1.0, 0.0, 1.0], "den": [1.0, 2.0, 1.0]}
    tfs[1] = {"num": [4.0, 0.0, 1.0], "den": [1.0, 2.0, 1.0]}
    doc["nodes"] = {"preset": "explicit", "tfs": tfs}
    return write_config(tmp_path, doc)


class TestEvaluate:
    def test_eq15_band_report(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        per_seed = summary["per_seed"]["0"]
        assert per_seed["bound_satisfied"] is True
        assert per_seed["hinf_t_yu"] <= per_seed["gamma_hat"] * (1 + 1e-6)
        assert per_seed["hinf_t_hat_k"] <= per_seed["gamma_hat"] * (1 + 1e-6)
        assert "omega=0 excluded" in summary["band_note"]
        with open(out / "band_seed0.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["omega", "err_yu_hatk", "err_yu_tk", "theorem1_bound", "feasible"]

    def test_ideal_block_model_near_exact(self, tmp_path):
        # Q = 1 makes the sampled graph equal its expectation: the embedding
        # is exactly block-constant, so the structure-preservation gap
        # ||T_k - T_hat_k|| collapses; the truncation part of sup_err stays
        doc = base_config()
        doc["wsbm"]["q"] = [[1.0] * 3] * 3
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["evaluate", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["per_seed"]["0"]["sup_err_structure"] <= 1e-7
        assert summary["per_seed"]["0"]["sup_err"] > 1e-7  # truncation remains

    def test_node_dynamics_evaluated_once_per_seed(self, tmp_path, monkeypatch):
        # band_error and passivity_check read one sweep of the model
        calls = []
        horner = netreduce.transfer._horner

        def counting_horner(coeffs, s):
            calls.append(coeffs.shape)
            return horner(coeffs, s)

        monkeypatch.setattr(netreduce.transfer, "_horner", counting_horner)
        cfg = write_config(tmp_path, base_config(grid_size=10, seeds=[0, 1]))
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        # each call stacks the 80 node numerators and denominators and f's two
        assert calls == [(162, 2)] * 2

    def test_band_without_an_evaluated_frequency_exits_2(self, tmp_path, capsys):
        cfg = all_gap_config(tmp_path)
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "NoFrequencyEvaluated: all 2 grid frequencies failed" in capsys.readouterr().err

    def test_validation_error_exit_code(self, tmp_path):
        doc = base_config()
        del doc["eta"]
        cfg = write_config(tmp_path, doc)
        assert main(["evaluate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1


class TestSimulate:
    def test_invalid_sim_settings_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, base_config(sim={"dt": 1e-3, "t_end": 3.0, "input_node": 500}))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1

    def test_short_horizon_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, base_config(sim={"dt": 0.4, "t_end": 1.0, "input_node": 1}))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
        assert not (tmp_path / "x").exists()

    def test_cancelling_group_exit_code(self, tmp_path, capsys):
        # the members' inverses s + 1 and -(s + 1) sum to zero
        tfs = [{"num": [1.0], "den": [1.0, 1.0]}] * 10 + [{"num": [-1.0], "den": [1.0, 1.0]}] * 10
        doc = base_config(k=1, nodes={"preset": "explicit", "tfs": tfs})
        doc["wsbm"] = {"sizes": [20], "q": [[1.0]], "w": [[1e4]]}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "ReductionFailed: stage 'aggregation'" in capsys.readouterr().err

    def test_eq15_step_response_files(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        full = read_matrix_csv(out / "full_seed0.csv")
        red = read_matrix_csv(out / "reduced_seed0.csv")
        assert full.shape == red.shape == (3001, 81)
        np.testing.assert_allclose(full[:, 0], red[:, 0])  # shared time column
        summary = json.loads((out / "summary.json").read_text())
        assert summary["per_seed"]["0"]["input_node"] == 1

        config = load_config(cfg)
        model, _, _ = build_model(config, 0)
        reduced = run_algorithm_1(model, config.k, seed=0, restarts=config.restarts)
        assignment = reduced.partition.assignment
        first = [int(np.flatnonzero(assignment == g)[0]) for g in range(reduced.k)]
        # each node column repeats the text of its group's first member
        for line in (out / "reduced_seed0.csv").read_text().splitlines():
            cells = line.split(",")
            assert cells[1:] == [cells[1 + first[g]] for g in assignment]
        sim = config.sim
        times, outputs = step_outputs(
            realize_reduced(reduced), int(assignment[sim.input_node]), sim.t_end, sim.dt
        )
        np.testing.assert_array_equal(red[:, 0], times)
        groups = red[:, [1 + j for j in first]]
        np.testing.assert_allclose(groups, outputs, rtol=1e-15, atol=0)

    @pytest.mark.parametrize(
        "unstable,when",
        [
            ({1: [1.0, -1.0]}, 1.62),
            ({40: [1.0, 0.0, -1.0]}, 0.955),
            # the reduced loop diverges first, at t = 0.953
            ({1: [1.0, -1.0], 41: [1.0, 0.0, -1.0]}, 1.62),
        ],
        ids=["full-loop", "reduced-loop", "reduced-loop-first"],
    )
    def test_diverging_seed_writes_no_step_response(self, tmp_path, capsys, unstable, when):
        # stable nodes 1/(1 + s) but for the unstable ones; the step time
        # named is the first sample of the loop that diverges, the full
        # loop whenever it does
        tfs = [{"num": [1.0], "den": [1.0, 1.0]}] * 80
        for node, den in unstable.items():
            tfs[node] = {"num": [1.0], "den": den}
        cfg = write_config(tmp_path, base_config(nodes={"preset": "explicit", "tfs": tfs}))
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: Diverged: state magnitude exceeded 1e+12 at t={when:g}\n"
        assert os.listdir(out) == []

    def test_memory_does_not_grow_with_the_horizon(self, tmp_path):
        peaks = {}
        for t_end in (4.0, 16.0):
            doc = base_config(sim={"dt": 1e-3, "t_end": t_end, "input_node": 1})
            cfg = write_config(tmp_path, doc, f"c{t_end:g}.json")
            tracemalloc.start()
            try:
                assert main(["simulate", "--config", cfg, "--out", str(tmp_path / f"t{t_end:g}")]) == 0
                peaks[t_end] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # 12000 more samples of the 80 outputs are 7.7 MB per array
        print(f"traced peaks: {peaks[4.0] / 2**20:.2f} MB at t_end 4, {peaks[16.0] / 2**20:.2f} MB at 16")
        assert peaks[16.0] <= peaks[4.0] + 2**18

    def test_k1_identical_nodes_coherent_spread(self, tmp_path):
        # one tightly connected group of identical nodes: every member
        # tracks the broadcast aggregate, so per-group spread is ~0
        doc = base_config(
            k=1,
            nodes={"preset": "explicit", "tfs": [{"num": [1.0], "den": [1.0, 1.0]}] * 20},
        )
        doc["wsbm"] = {"sizes": [20], "q": [[1.0]], "w": [[1e4]]}
        doc["sim"] = {"dt": 1e-3, "t_end": 3.0, "input_node": 1}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        # the disturbed node's brief private transient leaves ~2 percent
        assert max(summary["per_seed"]["0"]["per_group_max_rel_l2"]) <= 0.05

    def test_time_step_halving_stability(self, tmp_path):
        doc = base_config()
        doc["sim"] = {"dt": 2e-3, "t_end": 2.0, "input_node": 1}
        out1 = tmp_path / "coarse"
        main(["simulate", "--config", write_config(tmp_path, doc, "c1.json"), "--out", str(out1)])
        doc["sim"] = {"dt": 1e-3, "t_end": 2.0, "input_node": 1}
        out2 = tmp_path / "fine"
        main(["simulate", "--config", write_config(tmp_path, doc, "c2.json"), "--out", str(out2)])
        coarse = read_matrix_csv(out1 / "full_seed0.csv")
        fine = read_matrix_csv(out2 / "full_seed0.csv")
        assert np.abs(coarse[:, 1:] - fine[::2, 1:]).max() < 1e-10


class TestExperiment:
    def test_single_seed_single_row(self, tmp_path):
        cfg = write_config(tmp_path, base_config(grid_size=25))
        out = tmp_path / "run"
        assert main(["experiment", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0
        with open(out / "experiment.csv") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln]
        assert len(lines) == 2  # header + one row
        summary = json.loads((out / "summary.json").read_text())
        assert summary["per_scale"]["1"]["ok_seeds"] == 1

    def _failed_run(self, tmp_path, doc):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["experiment", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0
        with open(out / "experiment.csv") as fh:
            header, *rows = [ln.split(",") for ln in fh.read().splitlines() if ln]
        table = [dict(zip(header, row)) for row in rows]
        return table, json.loads((out / "summary.json").read_text())

    def test_failed_cells_are_structured(self, tmp_path):
        # blocks without cross edges: every cell fails before any stage
        doc = base_config(grid_size=10, seeds=[0, 1])
        doc["wsbm"]["q"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        table, summary = self._failed_run(tmp_path, doc)
        assert [(r["status"], r["error_type"], r["stage"]) for r in table] == [
            ("failed", "DisconnectedGraph", "")
        ] * 2
        assert summary["failed_cells"] == 2
        assert [(f["seed"], f["error_type"], f["stage"]) for f in summary["failures"]] == [
            (0, "DisconnectedGraph", ""),
            (1, "DisconnectedGraph", ""),
        ]
        assert summary["failures"][0]["message"].startswith("graph is disconnected (lambda_2=")

    def test_failed_stage_and_message_kept(self, tmp_path):
        doc = base_config(grid_size=10)
        doc["wsbm"] = {"sizes": [3, 3, 3], "q": [[1.0] * 3] * 3, "w": EQ15_W}
        tfs = [{"num": [1.0], "den": [1.0, 1.0]}] * 9
        tfs[4] = {"num": [0.0], "den": [1.0, 1.0]}
        doc["nodes"] = {"preset": "explicit", "tfs": tfs}
        table, summary = self._failed_run(tmp_path, doc)
        assert table == [
            {
                "scale": "1", "n": "", "seed": "0", "status": "failed", "sup_err": "",
                "clustering_success": "", "concentration": "", "lambda_k1": "",
                "refine_objective": "", "error_type": "ReductionFailed", "stage": "aggregation",
            }
        ]
        assert summary["failures"] == [
            {
                "scale": 1,
                "seed": 0,
                "error_type": "ReductionFailed",
                "stage": "aggregation",
                "message": "stage 'aggregation': member 1 has zero numerator; inverse undefined",
            }
        ]

    @pytest.mark.parametrize(
        "stage, callee",
        [
            ("eigendecomposition", "bottom_k_eig"),
            ("clustering", "cluster_embedding"),
            ("refinement", "refine_embedding"),
            ("reduced-laplacian", "reduced_laplacian"),
        ],
    )
    def test_each_stage_failure_names_its_stage(self, monkeypatch, stage, callee):
        injected = RuntimeError("injected")

        def fail(*args, **kwargs):
            raise injected

        monkeypatch.setattr(netreduce.reduction, callee, fail)
        config = config_from_dict(base_config(grid_size=10))
        model, _, _ = build_model(config, 0)
        with pytest.raises(ReductionFailed) as info:
            run_algorithm_1(model, config.k, seed=0)
        assert info.value.stage == stage
        assert str(info.value) == f"stage '{stage}': injected"
        assert info.value.__cause__ is injected
        row = cli._experiment_cell((config, 1, 0))
        assert (row["status"], row["error_type"], row["stage"]) == ("failed", "ReductionFailed", stage)

    def test_band_without_an_evaluated_frequency_is_a_failed_cell(self, tmp_path):
        out = tmp_path / "run"
        cfg = all_gap_config(tmp_path)
        assert main(["experiment", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0
        with open(out / "experiment.csv") as fh:
            header, row = [ln.split(",") for ln in fh.read().splitlines() if ln]
        cells = dict(zip(header, row))
        assert (cells["status"], cells["error_type"], cells["stage"]) == (
            "failed", "NoFrequencyEvaluated", ""
        )
        failure = json.loads((out / "summary.json").read_text())["failures"][0]
        assert failure["message"].startswith("all 2 grid frequencies failed; first at omega=1: ")

    def test_ok_rows_leave_failure_columns_empty(self, tmp_path):
        cfg = write_config(tmp_path, base_config(grid_size=10))
        out = tmp_path / "run"
        assert main(["experiment", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0
        with open(out / "experiment.csv") as fh:
            header, row = [ln.split(",") for ln in fh.read().splitlines() if ln]
        cells = dict(zip(header, row))
        assert cells["status"] == "ok" and cells["error_type"] == cells["stage"] == ""
        assert json.loads((out / "summary.json").read_text())["failures"] == []

    def test_deterministic_graph_zero_concentration(self, tmp_path):
        doc = base_config(grid_size=25)
        doc["wsbm"]["q"] = [[1.0] * 3] * 3
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "run"
        assert main(["experiment", "--config", cfg, "--out", str(out), "--jobs", "1"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["per_scale"]["1"]["median_concentration"] <= 1e-10


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _square_with_pid(x):
    return x * x, os.getpid()


def _killed_at_3(x):
    if x == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def _interrupted_at_3(x):
    if x == 3:
        raise KeyboardInterrupt
    return x


def two_scale_config(tmp_path, seeds=(0, 1, 2)):
    doc = base_config(grid_size=10, seeds=list(seeds), scales=[1, 2], restarts=5)
    doc["wsbm"]["sizes"] = [8, 16, 8]
    return write_config(tmp_path, doc)


class TestForkedWorkers:
    def test_every_split_writes_the_same_files(self, tmp_path, monkeypatch):
        # 6 cells, one failing: serial, strides of 3 + 3, of 2 + 2 + 2, and
        # more jobs than cells; the forked workers inherit the patch
        reduce_one = cli._reduce_one

        def failing_at_scale_2_seed_1(config, seed, scale=1):
            if (scale, seed) == (2, 1):
                raise ReductionFailed("refinement", "injected")
            return reduce_one(config, seed, scale)

        monkeypatch.setattr(cli, "_reduce_one", failing_at_scale_2_seed_1)
        cfg = two_scale_config(tmp_path)
        trees = {}
        for jobs in (1, 2, 3, 7):
            out = tmp_path / f"jobs{jobs}"
            assert main(["experiment", "--config", cfg, "--out", str(out), "--jobs", str(jobs)]) == 0
            trees[jobs] = tree_bytes(out)
        assert all(tree == trees[1] for tree in trees.values())
        summary = json.loads(trees[1]["summary.json"])
        assert [(f["scale"], f["seed"], f["stage"]) for f in summary["failures"]] == [(2, 1, "refinement")]
        assert summary["per_scale"]["1"]["ok_seeds"] == 3 and summary["per_scale"]["2"]["ok_seeds"] == 2
        no_child_left()

    @pytest.mark.parametrize("length, jobs", [(0, 2), (1, 3), (2, 2), (5, 2), (7, 3), (6, 4), (3, 8)])
    def test_results_keep_the_item_order(self, length, jobs):
        results = _forked_map(_square_with_pid, list(range(length)), jobs)
        assert [r for r, _ in results] == [x * x for x in range(length)]
        pids = [pid for _, pid in results]
        workers = min(jobs, length)
        if workers <= 1:
            assert set(pids) <= {os.getpid()}
        else:
            # item i ran in worker i % workers, each worker a process of its own
            assert len(set(pids)) == workers and os.getpid() not in pids
            assert pids == [pids[i % workers] for i in range(length)]
        no_child_left()

    def test_without_fork_the_items_run_here(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert _forked_map(_square_with_pid, [0, 1, 2], 2) == [(x * x, os.getpid()) for x in range(3)]

    @pytest.mark.parametrize(
        "fn, how", [(_killed_at_3, "killed by signal 9"), (_interrupted_at_3, "exit code 1")]
    )
    def test_worker_without_results_raises(self, fn, how):
        # item 3 is worker 0's second; workers 1 and 2 are killed or reaped
        with pytest.raises(ChildProcessError, match=rf"^worker 0 of 3 ended without its results \({how}\)$"):
            _forked_map(fn, list(range(6)), 3)
        no_child_left()

    def test_failed_fork_kills_the_started_workers(self, monkeypatch):
        fork, pids = os.fork, []

        def second_fork_fails():
            if pids:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            pids.append(fork())
            return pids[-1]

        monkeypatch.setattr(os, "fork", second_fork_fails)
        t0 = time.monotonic()
        with pytest.raises(BlockingIOError):
            _forked_map(time.sleep, [60, 60], 2)
        assert time.monotonic() - t0 < 30  # the sleeping worker was killed
        no_child_left()

    def test_killed_worker_exits_2(self, tmp_path, capsys, monkeypatch):
        def cell(args):
            if args[2] == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return {}

        monkeypatch.setattr(cli, "_experiment_cell", cell)
        cfg = two_scale_config(tmp_path, seeds=(0, 1))
        out = tmp_path / "run"
        assert main(["experiment", "--config", cfg, "--out", str(out), "--jobs", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: ChildProcessError: worker 1 of 2 ended without its results (killed by signal 9)\n"
        )
        assert not (out / "experiment.csv").exists()
        no_child_left()

    @pytest.mark.parametrize(
        "affinity, cpu_count, jobs", [({0, 2, 5}, 8, 3), (None, 8, 8), (None, None, 1)]
    )
    def test_default_jobs_are_the_usable_cpus(self, tmp_path, monkeypatch, affinity, cpu_count, jobs):
        seen = []

        def recorder(fn, items, jobs):
            seen.append(jobs)
            return [fn(item) for item in items]

        monkeypatch.setattr(cli, "_forked_map", recorder)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        cfg = write_config(tmp_path, base_config(grid_size=10, restarts=5))
        assert main(["experiment", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        assert seen == [jobs]


@pytest.mark.parametrize("case", ["ok", "option", "runtime"])
def test_module_entry_exits_as_main_returns(tmp_path, capsys, case):
    cfg = two_scale_config(tmp_path, seeds=(0, 1))
    args, code = {
        "ok": (["experiment", "--config", cfg, "--jobs", "2"], 0),
        "option": (["experiment", "--config", cfg, "--jobs", "0"], 1),
        "runtime": (["evaluate", "--config", all_gap_config(tmp_path)], 2),
    }[case]
    assert main([*args, "--out", str(tmp_path / "main")]) == code
    err = capsys.readouterr().err
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(netreduce.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "netreduce.cli", *args, "--out", str(tmp_path / "entry")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (code, err)
    assert err.startswith("error: ") == (code != 0)
    assert tree_bytes(tmp_path / "entry") == tree_bytes(tmp_path / "main")


def test_only_the_process_entry_freezes_the_heap(tmp_path):
    cfg, frozen = small_run_config(tmp_path), gc.get_freeze_count()
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "main")]) == 0
    assert gc.get_freeze_count() == frozen
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(netreduce.__file__)))
    script = "import gc, sys; from netreduce.cli import entry; print(entry(sys.argv[1:]), gc.get_freeze_count())"
    proc = subprocess.run(
        [sys.executable, "-c", script, "generate", "--config", cfg, "--out", str(tmp_path / "entry")],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    code, count = proc.stdout.split()
    assert code == "0" and int(count) > 0


def small_run_config(tmp_path):
    doc = base_config(
        grid_size=10, seeds=[0, 1], restarts=5, sim={"dt": 1e-3, "t_end": 0.5, "input_node": 1}
    )
    return write_config(tmp_path, doc)


@pytest.mark.parametrize("command", ["generate", "reduce", "evaluate", "simulate", "experiment"])
def test_manifest_lists_the_files_written(tmp_path, command):
    cfg, out = small_run_config(tmp_path), tmp_path / "run"
    jobs = ["--jobs", "1"] if command == "experiment" else []
    assert main([command, "--config", cfg, "--out", str(out), *jobs]) == 0
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert len(set(files)) == len(files)
    assert sorted(files) == sorted(set(os.listdir(out)) - {"manifest.json"})
    # in write order: no file was last written after the one listed next
    mtimes = [os.stat(out / name).st_mtime_ns for name in files]
    assert mtimes == sorted(mtimes)


def test_only_reduce_builds_the_reduced_model_document(tmp_path, monkeypatch):
    calls = []
    to_dict = netreduce.reduction.ReducedModel.to_dict

    def counting_to_dict(self):
        calls.append(self.k)
        return to_dict(self)

    monkeypatch.setattr(netreduce.reduction.ReducedModel, "to_dict", counting_to_dict)
    cfg = small_run_config(tmp_path)
    for command in ("evaluate", "simulate", "experiment", "reduce"):
        out = str(tmp_path / command)
        jobs = ["--jobs", "1"] if command == "experiment" else []
        assert main([command, "--config", cfg, "--out", out, *jobs]) == 0
    assert calls == [3, 3]  # the two seeds of reduce


# run in a fresh interpreter, since this test process may have loaded scipy
# for the reference solutions of other tests, and numpy.ma through them; a
# command is its name and its options after the config and output, so
# "experiment --jobs 1" runs serially in this interpreter
LEAN_CHILD = """
import json, sys
from netreduce.cli import main
cfg, out, *commands = sys.argv[1:]
codes = [
    main([cmd.split()[0], "--config", cfg, "--out", f"{out}/{i}", *cmd.split()[1:]])
    for i, cmd in enumerate(commands)
]
loaded = [
    m for m in sys.modules
    if m.startswith(("scipy", "concurrent", "multiprocessing"))
    or m in ("numpy.ma", "fractions", "decimal")
]
print(json.dumps({"codes": codes, "loaded": sorted(loaded)}))
"""


def run_lean_child(tmp_path, doc, *commands):
    cfg = write_config(tmp_path, doc)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(netreduce.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", LEAN_CHILD, cfg, str(tmp_path / "out"), *commands],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout)


def test_small_commands_load_neither_scipy_nor_a_process_pool(tmp_path):
    doc = base_config(grid_size=10, seeds=[0, 1], sim={"dt": 1e-3, "t_end": 0.5, "input_node": 1})
    commands = ("evaluate", "simulate", "experiment --jobs 2")
    assert run_lean_child(tmp_path, doc, *commands) == {"codes": [0, 0, 0], "loaded": []}


def test_reduce_above_dense_max_n_loads_no_scipy(tmp_path):
    doc = base_config(restarts=5)
    doc["wsbm"]["sizes"] = [256, 512, 258]
    assert sum(doc["wsbm"]["sizes"]) > _DENSE_MAX_N
    assert run_lean_child(tmp_path, doc, "reduce") == {"codes": [0], "loaded": []}


def test_commands_do_not_import_numpy_ma(tmp_path):
    # np.unique and np.median import numpy.ma, about 15 ms in every process
    doc = base_config(
        grid_size=10, seeds=[0, 1], scales=[1, 2], restarts=5,
        sim={"dt": 1e-3, "t_end": 0.5, "input_node": 1},
    )
    doc["wsbm"]["sizes"] = [8, 16, 8]
    commands = ("reduce", "evaluate", "simulate", "experiment --jobs 1")
    assert run_lean_child(tmp_path, doc, *commands) == {"codes": [0] * 4, "loaded": []}
