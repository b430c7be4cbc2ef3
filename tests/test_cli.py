"""Command-line interface: outputs, exit codes, reproducibility."""

import copy
import json

import numpy as np
import pytest

from lnjam import partition
from lnjam.cli import main
from lnjam.topology import build_graph, parse_snapshot, serialize_snapshot

import netgen


@pytest.fixture
def snapshot_file(tmp_path):
    snapshot = netgen.random_snapshot(30, 20, seed=42)
    path = tmp_path / "graph.json"
    path.write_text(serialize_snapshot(snapshot))
    return path


def _csv_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header, rows = lines[0].split(","), [l.split(",") for l in lines[1:]]
    return header, rows


def test_version_and_usage_exit_codes(capsys):
    assert main(["--version"]) == 0
    assert "lnjam" in capsys.readouterr().out
    assert main(["no-such-command"]) == 1
    assert main(["stats"]) == 1  # --snapshot and --param are required
    assert main([]) == 1


def test_missing_snapshot_file_is_an_input_error(tmp_path, capsys):
    code = main(["stats", "--snapshot", str(tmp_path / "nope.json"), "--param", "cltv_delta"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_stats_shares_sum_to_one(snapshot_file, capsys):
    assert main(["stats", "--snapshot", str(snapshot_file), "--param", "cltv_delta"]) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert header == ["value", "share"]
    assert sum(float(r[1]) for r in rows) == pytest.approx(1.0)
    assert main(["stats", "--snapshot", str(snapshot_file), "--param", "bogus"]) == 1


def test_tag_lists_every_node(snapshot_file, capsys):
    assert main(["tag", "--snapshot", str(snapshot_file)]) == 0
    out = capsys.readouterr().out
    header, rows = _csv_rows(out)
    assert header == ["node_id", "implementation", "score"]
    assert len(rows) == 30
    assert all(r[1] == "lnd" for r in rows)
    assert "# share_all_nodes" in out or "share_all_nodes" in out


def test_ingest_output_reparses(snapshot_file, tmp_path):
    out = tmp_path / "normalized.json"
    assert main(["ingest", "--snapshot", str(snapshot_file), "--output", str(out)]) == 0
    again = parse_snapshot(out.read_text())
    original = parse_snapshot(snapshot_file.read_text())
    assert again.node_ids == original.node_ids
    assert len(again.channels) == len(original.channels)


def test_attack_network_csv_and_plan_verify(snapshot_file, tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    csv_path = tmp_path / "rows.csv"
    code = main([
        "attack-network", "--snapshot", str(snapshot_file),
        "--output", str(csv_path), "--plan-out", str(plan_path),
    ])
    assert code == 0
    header, rows = _csv_rows(csv_path.read_text())
    assert header == [
        "attacker_channels", "route_channels", "lock_duration",
        "route_capacity_sat", "locked_fraction",
    ]
    assert rows
    fractions = [float(r[4]) for r in rows]
    assert fractions == sorted(fractions)
    assert fractions[-1] == pytest.approx(1.0)

    plan_doc = json.loads(plan_path.read_text())
    assert plan_doc["kind"] == "network-attack"
    code = main([
        "verify-plan", "--snapshot", str(snapshot_file), "--plan", str(plan_path),
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)["verification"]
    assert report["ok"] is True
    assert report["channels_locked"] == report["channels_targeted"]
    assert report["probes_blocked"] == report["probes_attempted"]


def test_attack_network_rejects_tiny_budget(snapshot_file, capsys):
    code = main(["attack-network", "--snapshot", str(snapshot_file), "--budget", "1"])
    assert code == 3
    assert "infeasible:" in capsys.readouterr().err


def test_attack_network_sweeps(snapshot_file, capsys):
    code = main([
        "attack-network", "--snapshot", str(snapshot_file), "--sweep-days", "2,7",
    ])
    assert code == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert header[0] == "days"
    assert {r[0] for r in rows} == {"2", "7"}
    assert main([
        "attack-network", "--snapshot", str(snapshot_file), "--sweep-days", "15",
    ]) == 3


def test_attack_connectivity_all_methods(snapshot_file, capsys):
    for method in ("betweenness", "spectral", "kl"):
        code = main([
            "attack-connectivity", "--snapshot", str(snapshot_file),
            "--method", method, "--budget", "12",
        ])
        assert code == 0
        header, rows = _csv_rows(capsys.readouterr().out)
        assert header == ["attacker_channels", "connected_pairs_fraction"]
        assert rows[0] == ["0", "1.000000"]


def test_attack_connectivity_takes_no_weight(snapshot_file, capsys):
    # The method picks the weights, so a --weight flag would be ignored.
    assert main([
        "attack-connectivity", "--snapshot", str(snapshot_file), "--weight", "betweenness",
    ]) == 1
    assert "unrecognized arguments: --weight betweenness" in capsys.readouterr().err


def test_attack_node_json(snapshot_file, capsys):
    victim = "n003"
    assert main(["attack-node", "--snapshot", str(snapshot_file), "--victim", victim]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["plan"]["victim"] == victim
    assert doc["summary"]["attacker_channels_needed"] == doc["plan"]["attacker_channels_needed"]
    assert doc["summary"]["victim_degree"] == len(doc["plan"]["per_channel"])
    assert main([
        "attack-node", "--snapshot", str(snapshot_file), "--victim", "ghost",
    ]) == 2


def test_isolation_curves_csv(capsys):
    assert main(["isolation-curves", "--impl", "lnd", "--max-degree", "10"]) == 0
    header, rows = _csv_rows(capsys.readouterr().out)
    assert header == ["implementation", "victim_degree", "attacker_channels"]
    assert ["lnd", "9", "2"] in rows
    assert len(rows) == 10


def test_cost_json(snapshot_file, capsys):
    assert main(["cost", "--snapshot", str(snapshot_file)]) == 0
    doc = json.loads(capsys.readouterr().out)["cost"]
    assert doc["onchain_fees_usd"] == pytest.approx(2.2 * 2 * len(doc["per_route"]))
    assert doc["locked_liquidity_msat"] == sum(
        r["locked_liquidity_msat"] for r in doc["per_route"]
    )


def test_cost_rejects_bad_pricing_inputs(snapshot_file, capsys):
    for flag, value in [("--batch-discount", "nan"), ("--usd-per-open", "-2"),
                        ("--btc-usd", "inf"), ("--batch-discount", "2")]:
        assert main(["cost", "--snapshot", str(snapshot_file), flag, value]) == 3, flag
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("infeasible: ") == 4
    assert "Traceback" not in captured.err


def test_simulate_builtin_and_log(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    assert main(["simulate", "--scenario", "experiment1", "--log", str(log)]) == 0
    events = [json.loads(line) for line in log.read_text().splitlines()]
    assert any(e["event"] == "force_close" for e in events)
    out = capsys.readouterr().out
    assert "PASS" in out


def test_simulate_failing_scenario_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("open c1 A B 1000000\nassert_pending c1 5\n")
    assert main(["simulate", "--scenario", str(bad)]) == 4
    assert "FAIL" in capsys.readouterr().out
    worse = tmp_path / "worse.scn"
    worse.write_text("jibber jabber\n")
    assert main(["simulate", "--scenario", str(worse)]) == 2


def test_simulate_malformed_lines_are_input_errors(tmp_path, capsys):
    script = tmp_path / "bad.scn"
    lines = [
        "open c1 A B 1000000\nassert_pending c1", "assert_open", "open c1 A B x",
        "pay p1 abc A c1", "open c1 A B 1000 slots=x",
        "open c1 A B 1000000\npay p1 5000 A c1 final=z", "fail", "advance x",
        "open c1 A B 1000000\nassert_fails SlotFul pay p2 5000 A c1",
        "open c1 A B 1000000 slot=1", "repeat -3 pay p{i} 5000 A c1",
        "pay p1 5000 A c1*0,c2", "pay p1 5000 A c1*-2,c2",
    ]
    for text in lines:
        script.write_text(text + "\n")
        assert main(["simulate", "--scenario", str(script)]) == 2, text
    err = capsys.readouterr().err
    assert err.count("error: line ") == len(lines)
    assert "Traceback" not in err


def test_verify_plan_rejects_malformed_input(snapshot_file, tmp_path, capsys):
    bogus = tmp_path / "plan.json"

    def verify(doc):
        bogus.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return main(["verify-plan", "--snapshot", str(snapshot_file), "--plan", str(bogus)])

    assert verify({"kind": "sandwich"}) == 2
    assert verify("not json") == 2

    network_path, node_path = tmp_path / "network.json", tmp_path / "node.json"
    assert main([
        "attack-network", "--snapshot", str(snapshot_file),
        "--output", str(tmp_path / "rows.csv"), "--plan-out", str(network_path),
    ]) == 0
    assert main([
        "attack-node", "--snapshot", str(snapshot_file), "--victim", "n003",
        "--output", str(node_path),
    ]) == 0
    network = json.loads(network_path.read_text())
    isolation = json.loads(node_path.read_text())["plan"]
    graph = build_graph(parse_snapshot(snapshot_file.read_text()))
    far = next(cid for cid in graph.channel_ids if cid not in graph.channels_of("n003"))
    assert len(network["routes"][0]["hops"]) > 1

    def edited(doc, edit):
        doc = copy.deepcopy(doc)
        edit(doc)
        return doc

    for doc in (
        edited(network, lambda d: d["routes"][0]["hops"][0].update(channel_id="nope")),
        edited(network, lambda d: d.pop("routes")),
        edited(network, lambda d: d["routes"][0]["hops"][0].update({"from": "n999"})),
        edited(network, lambda d: d["routes"][0].update(slot_class="many")),
        edited(network, lambda d: d["routes"][0].update(slot_class=0)),
        # A slot class beyond what the attacker's 483-slot channels carry.
        edited(network, lambda d: d["routes"][0].update(slot_class=484)),
        edited(network, lambda d: d["routes"][0]["hops"].reverse()),
        edited(isolation, lambda d: d["per_channel"][0].update(channel_id="nope")),
        edited(isolation, lambda d: d["per_channel"][0].update(channel_id=far)),
        # Out-of-range traversal counts are rejected before any route is built.
        edited(isolation, lambda d: d["per_channel"][0]["payments"][0].update(traversals=0)),
        edited(isolation, lambda d: d["per_channel"][0]["payments"][0].update(traversals=2**62)),
        # So are entry channels that could hold no HTLC at all.
        edited(isolation, lambda d: d.update(entry_budget=0)),
        edited(isolation, lambda d: d.update(entry_budget=-3)),
        # A victim outside the snapshot, even one with no channels to check.
        edited(isolation, lambda d: d.update(victim="ghost", per_channel=[])),
        # An integer field takes a JSON integer, not a float, bool or string.
        edited(network, lambda d: d["routes"][0].update(slot_class=482.9)),
        edited(network, lambda d: d["routes"][0].update(slot_class=True)),
        edited(network, lambda d: d["routes"][0].update(slot_class="483")),
        edited(network, lambda d: d["routes"][0].update(timeout_sum=40.5)),
        edited(network, lambda d: d["routes"][0].update(lock_duration="1976")),
        edited(network, lambda d: d["routes"][0].update(payment_amount_msat=1.5)),
        edited(network, lambda d: d["routes"][0].update(weight=True)),
        edited(isolation, lambda d: d["per_channel"][0]["payments"][0].update(traversals=17.5)),
    ):
        assert verify(doc) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 24
    assert err.count("must be an integer, got") == 8
    assert err.count("weight must be a number, got True") == 1
    assert err.count("outside [1, 18]") == 2
    assert err.count("outside [1, 483]") == 4
    assert err.count("victim node 'ghost' not in snapshot") == 1
    assert "Traceback" not in err
    assert verify(edited(isolation, lambda d: d.update(per_channel=[]))) == 0


def test_csv_output_is_byte_identical_across_runs(snapshot_file, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        assert main([
            "attack-network", "--snapshot", str(snapshot_file), "--output", str(path),
        ]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_spectral_non_convergence_is_infeasible(snapshot_file, monkeypatch, capsys):
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(partition.np.linalg, "eigh", fail)
    code = main([
        "attack-connectivity", "--snapshot", str(snapshot_file),
        "--method", "spectral", "--budget", "12",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "infeasible:" in err
    assert "Traceback" not in err


def test_spectral_cut_of_a_doubled_ring(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(serialize_snapshot(netgen.ring_snapshot()))
    assert main(["attack-connectivity", "--snapshot", str(path), "--method", "spectral"]) == 0


def test_attack_network_flag_misuse_is_a_usage_error(snapshot_file, tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    for flags in (
        ["--sweep-days", "1,x"],
        ["--sweep-route-limit", "12,x"],
        ["--sweep-days", "1", "--sweep-route-limit", "12"],
        ["--sweep-route-limit", "12", "--plan-out", str(plan_path)],
    ):
        assert main(["attack-network", "--snapshot", str(snapshot_file), *flags]) == 1, flags
    assert not plan_path.exists()
    assert main(["attack-network", "--snapshot", str(snapshot_file), "--sweep-days", "15"]) == 3
    err = capsys.readouterr().err
    assert err.count("error: argument") == 4
    assert "infeasible:" in err
    assert "Traceback" not in err


def test_nan_lock_period_is_out_of_range(snapshot_file, capsys):
    assert main(["attack-network", "--snapshot", str(snapshot_file), "--sweep-days", "nan"]) == 3
    err = capsys.readouterr().err
    assert "infeasible:" in err
    assert "outside (0, 14)" in err
    assert "Traceback" not in err


def test_isolation_curves_reject_out_of_range_lock_periods(capsys):
    for tau_min in ("-5", "3000"):
        assert main(["isolation-curves", "--tau-min", tau_min]) == 3
    err = capsys.readouterr().err
    assert err.count("infeasible: tau_min must be in (0, 2016)") == 2
    assert "Traceback" not in err


def test_isolation_curves_reject_degrees_below_one(capsys):
    for max_degree in ("0", "-3"):
        assert main(["isolation-curves", "--max-degree", max_degree]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("infeasible: max_degree must be at least 1") == 2
    assert "Traceback" not in captured.err


def test_attack_connectivity_rejects_negative_budget(snapshot_file, capsys):
    args = ["attack-connectivity", "--snapshot", str(snapshot_file), "--budget"]
    assert main([*args, "-4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "infeasible: budget of -4 attacker channels is negative" in captured.err
    assert "Traceback" not in captured.err
    assert main([*args, "0"]) == 0


def test_attack_node_output_verifies(snapshot_file, tmp_path, capsys):
    # The README workflow: attack-node --output, then verify-plan --plan.
    plan_path = tmp_path / "plan.json"
    assert main([
        "attack-node", "--snapshot", str(snapshot_file), "--victim", "n003",
        "--output", str(plan_path),
    ]) == 0
    code = main(["verify-plan", "--snapshot", str(snapshot_file), "--plan", str(plan_path)])
    assert code in (0, 4)
    report = json.loads(capsys.readouterr().out)["verification"]
    assert report["plan_kind"] == "isolation"
