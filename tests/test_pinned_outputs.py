"""Outputs pinned by digest: a change that alters any of them must say so.

The digests were computed on the code these outputs come from and are
compared byte for byte: the four builtin scenarios' ``simulate --log`` event
logs and step records, the verification reports of a network plan and
ten isolation plans on one mixed-implementation snapshot whose small
channels make some replays fail, and what set-up gives the CLI on another
such snapshot (``ingest`` output, ``tag`` CSV body, ``attack-network`` plan),
and the budget-20 betweenness disconnection of the benchmark's seed-1
partition snapshot.
"""

import hashlib
import json
import time

import pytest

from lnjam.cli import main
from lnjam.isolation import plan_isolation
from lnjam.planner import plan_network_attack
from lnjam.simulator import builtin_scenario, execute_plan, run_scenario
from lnjam.topology import serialize_snapshot

import netgen

# scenario -> (event log sha256, step records sha256)
SCENARIOS = {
    "experiment1": (
        "4bb684fb83bdbed6ef54388fa73e447b21d92dfd569f028664ba6f120c8a98eb",
        "9858711193234dab63af98a6e29aeb8b7e94b32aa592426fc5e903d69a516aad",
    ),
    "experiment2": (
        "b0b2624df6a4c9aaef175207a6d51cfdbff927b1029f889504f9336491867aeb",
        "5ad4bd77096573c8ab601975ada07c1ddda8328eb1921788c1f693ba0ca85957",
    ),
    "experiment3": (
        "ddb24d9b70d8f67205de6e3d778d12ce591ed65978166236d8d3f693858e2cef",
        "a0a4d9a6c4aacbda380de5d0d006e7884d49a2c3aaf20334432e7c8f0b6b17c9",
    ),
    "experiment4": (
        "f95d3c924be47b4727f7160215ac9e531a13dbcde5b6adab707a0e37022cf047",
        "e132f11175e479a6baf5d0a7a566aae1c59beaa5010a22a01c49953492214fb6",
    ),
}

NETWORK_REPORT = "e22ef62c54792f613202f7ab7e990863e51fea44258c24c81f5d1c76ce8a1080"
ISOLATION_REPORTS = "ef3aa235e276dabc0f2f3da567b04edcc7055cc0684e314db42dc87a451a6881"

# command -> sha256 of what it writes, comment lines dropped (they name the
# version)
SETUP_OUTPUTS = {
    "ingest": "3760dd3fb3cecdf1e36f3396356d38dfc3a79c20f30a871b81a67f36e7f6a6cc",
    "tag": "5f161337aba473cd3be628989af5286b4ffbaa2b30def122ab58243c52de03ae",
    "attack-network": "395f3806f18c041e0a230cb29dcee3fb1f6c053a9d22e150f6859573c155c77e",
}

# attack-connectivity --method betweenness --budget 20 on the benchmark's
# seed-1 partition snapshot: (CSV body sha256, plan file sha256), as the
# benchmark computes its digests
BETWEENNESS_OUTPUTS = (
    "662804c43d7856c8f705c00eb7d47e8791e5215e98fe6b7f4e52dd5d619f894a",
    "a5430f263bccf5c8fb33e3ad8c1b48bf7a26225038c17b213b38958c18224250",
)


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _body(text: str) -> str:
    """A CLI output without its comment lines."""
    return "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_builtin_scenario_log_and_steps_are_pinned(name, tmp_path, capsys):
    log_digest, steps_digest = SCENARIOS[name]
    log = tmp_path / "events.jsonl"
    assert main(["simulate", "--scenario", name, "--log", str(log)]) == 0
    assert _sha256(log.read_bytes()) == log_digest
    steps = [
        [s.line_no, s.command, s.ok, s.detail]
        for s in run_scenario(builtin_scenario(name)).steps
    ]
    assert _sha256(json.dumps(steps)) == steps_digest


def test_replay_reports_are_pinned(small_channel_mesh):
    _, graph, labels = small_channel_mesh
    began = time.perf_counter()
    network = execute_plan(plan_network_attack(graph, labels), graph, labels)
    victims = sorted(graph.nodes, key=lambda n: (-graph.degree(n), n))[:10]
    isolations = [
        execute_plan(plan_isolation(graph, labels, victim=v), graph, labels) for v in victims
    ]
    elapsed = time.perf_counter() - began
    # Both kinds of replay fail somewhere here, so the pins cover failures.
    assert not network.ok and not all(r.ok for r in isolations)
    assert _sha256(json.dumps(network.to_json_dict(), sort_keys=True)) == NETWORK_REPORT
    assert _sha256(
        "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n" for r in isolations)
    ) == ISOLATION_REPORTS
    assert elapsed < 1.0


def _setup_snapshot_json() -> str:
    """Mixed implementations, some custom fees, one disabled direction, one
    unannounced direction and one invalid policy."""
    snapshot = netgen.random_snapshot(80, 160, seed=5, impl_names=netgen.IMPL_NAMES)
    doc = json.loads(serialize_snapshot(snapshot))
    for k, edge in enumerate(doc["edges"]):
        if k % 7 == 0:
            edge["node1_policy"]["fee_base_msat"] = str(k % 3 * 500)
    doc["edges"][3]["node1_policy"]["disabled"] = True
    doc["edges"][5]["node2_policy"] = None
    doc["edges"][9]["node2_policy"]["time_lock_delta"] = "-5"
    return json.dumps(doc)


@pytest.mark.parametrize("command", sorted(SETUP_OUTPUTS))
def test_setup_outputs_are_pinned(command, tmp_path):
    snapshot = tmp_path / "graph.json"
    snapshot.write_text(_setup_snapshot_json())
    out = tmp_path / "out"
    args = [command, "--snapshot", str(snapshot), "--output", str(out)]
    if command == "attack-network":
        out = tmp_path / "plan.json"
        args += ["--plan-out", str(out)]
    assert main(args) == 0
    assert _sha256(_body(out.read_text())) == SETUP_OUTPUTS[command]


def test_betweenness_disconnection_outputs_are_pinned(bench_netgen, tmp_path):
    snapshot = tmp_path / "graph.json"
    bench_netgen.write_snapshot(str(snapshot), 300, 4, 1, 2, 0.2)
    curve, plan = tmp_path / "betweenness.csv", tmp_path / "plan.json"
    assert main([
        "attack-connectivity", "--snapshot", str(snapshot), "--budget", "20",
        "--method", "betweenness", "--output", str(curve), "--plan-out", str(plan),
    ]) == 0
    assert (_sha256(_body(curve.read_text())), _sha256(plan.read_text())) == BETWEENNESS_OUTPUTS
