"""Golden sha256 digests of simulation outputs.

The digests below were taken from the per-node reference engine, except
``MIXED_DIMS_SLOTS``, taken from the array engine that still stepped each
matrix plant with its own matmul, and ``SWEEP_CSV``, taken while ``sweep``
still formatted its rows by hand. Any engine that claims to be the same
engine must reproduce them byte for byte; a digest may only change together
with an explanation of why the output changed. Print the digests of the
current tree with

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ehctrl import telemetry
from ehctrl.cli import main
from ehctrl.config import build_config, read_raw
from ehctrl.control import PlantModel, required_reception_probability
from ehctrl.sim import SimulationAborted, run

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_acceptance import _random_sized_config  # noqa: E402

DEFAULT_HORIZON = 2000
DEFAULT_SEED = 1
RANDOM_SEED = 20_260_817
RANDOM_CASES = 30
MANY_NODES = 32
MANY_NODES_HORIZON = 300
MIXED_DIMS_HORIZON = 2000
SWEEP_ARGS = ["sweep", "--param", "harvest_mean", "--values", "0.3,0.6",
              "--horizon", "300", "--seed", "5"]

MATRIX_PLANTS = (
    PlantModel(
        a_open=[[1.05, 0.1], [0.0, 1.05]], a_closed=np.eye(2) * 0.1,
        noise_cov=np.eye(2), lyapunov_weight=np.eye(2), decrease_rate=0.8,
    ),
    PlantModel(
        a_open=[[1.05, 0.2, 0.0], [0.0, 1.0, 0.2], [0.0, 0.0, 0.9]],
        a_closed=np.eye(3) * 0.2, noise_cov=np.eye(3),
        lyapunov_weight=np.diag([1.0, 2.0, 1.0]), decrease_rate=0.8,
    ),
)

DEFAULT_OUTPUTS = {
    "fig_battery.csv": "9407cc35fafa0fdce5c1299c308bfb137779db82d255c2476f9d950c76218037",
    "fig_ctrl_perf.csv": "4eab1a60d88db6b29ad31b7c808e91d76d221e621b5e41366e56a50734aebc58",
    "fig_dual_means.csv": "402ce7fbd5b64f408de9b7f2650056e79728839f13b5d29e4895d72ad8110c7a",
    "fig_energy_balance.csv": "e9c9d38bccbfef6f0612511205de6a4740e7407551a24a17766220a9c592c18b",
    "fig_prob_bars.csv": "48d278e1b87cdce1a40f71a93cd8d1a711674d6648491c8d7fd1f2517d6030ee",
    "fig_schedule_window.csv": "a43a4222ec9ab9298537ac72d00d87cdb79107d4695637193ec2d01f8376ac6d",
    "fig_state.csv": "832061fb3e99d724e68bb8c4fb8fe782660cdb56ff6383a98888f4cd20e02952",
    "slots.csv": "e1af2584fd659ddb120a2800a2bb41c73667dd784779517bed267a31076925da",
    "summary.csv": "c9354c5497d747835e3579c058796cde840057a406c9a8f0880c6c61e19f2c74",
    "summary.json": "c962226abbc6b858f69475cc42105194603147d7ad359b32fb71d66883171653",
}

RANDOM_SLOTS = [
    "3190ac0f147fa53eae2410c3e1dca365d2745512af5350f389793aabcad1ee2f",
    "f128573e8677e993cbbd40a5f1bcf1911dceae9f3f4aa4ef075e92ec03e7212a",
    "d2e15077e22d06d03cf66b543446afd5148daeeffafc3ecb1869339ee5ed684e",
    "89f4017144113ed1e1359f45b1cd567d976b24b9251f272acad202ff0cade670",
    "4e81a66c18bee3dc2605797bbc5ad45f4548f502558ba9fdf90a3ecc28b6768c",
    "0628e519b30125670e4e74e58671424b21e037787df77fc5440fe46fc61c0d01",
    "06136dd513378490f49cd3e2f5ad62f16bc6d937306a6be1871efcf26bfedc97",
    "59c157a5df5a82a0dcc41101f57a0139b49a48dc5b4c6d83128297923e3ac137",
    "e58ecde6d0e0b54066add512c569687b9b6ae1d0d6db7d2497e510c725ff1f9f",
    "b8fd9de1d3392823802c3968b6e3cab67cf105c38cfd42ba7fb3c5edb04d157f",
    "4339ce98307a7ef8d1a132d59f75a670d5f927c0e9277f66403a8bdf58a079cb",
    "367329a0c742f4a2beca4bca904ce35db40f1ee520a53e9f34d161efe0295a34",
    "c688d03ce548312adbf4c4ff89bbc0d8a980bb27225c596aac9137283696680f",
    "b35e62cfbbc0014c69945f25562476d402c342c95221e2cc41bea3912c0cb59e",
    "fcbb4d11e9aa30d4524ed005f7d190d4c7a80a6956fb1f9be84cfc35367e49f2",
    "e131fc88447d6e3c3d0f52abf7740440151fca8d88f3637706502e72b4022139",
    "249d691a7db4d6339814227b0c490597e28c8a85acf2ec4f36de6ceca38b0f02",
    "bd25f138b254ba814b7bf6226c89ef27d1fad2ae5bfb848b334c9a3ec2cb4064",
    "f9b39fdcb207a14d58d7c99d95798f76d5fce886c41d6430a37c04c1e5cec84e",
    "8fce2fab1b3982d18a297f82305d517e791b2c881478171560292b2e59137fee",
    "0b91f673ebc0d9afe981702b4d822dcddc45c821a1db57390a68e161f78f52dc",
    "71ef6f585cb63c1e6d85fa171890549eba113f5102bf6159e0285032d30174fa",
    "3de2eda0ce6a1c18c1b9a34e9aad7020be7d9d8572979f96516c79d3ef0cdf46",
    "b3aa16aea3c2d4b3d96d9da965dfb028b92425b1a950e92be465d549a04ae767",
    "a88f5ea492d50f208ff76ac5b1bcf4a40c83af8f9648c072325ada5cf960721d",
    "aa8f15dc4f2265a707e7efbe0f91793c51593f776a62c4a105d4d2ed213bb8f6",
    "e5171b6295e57fb237b406e5f75cadc5a43759622e61f546f3a499a02cd14200",
    "c4748a45783f2d28abe8737beb8cc9c782caf49fc1652f45f62d2e8b4f806b5c",
    "b41ce658e57b1dfbec95895c5fbf32cbc052c5450ca18c1ad4f57f656a4751bd",
    "76f66f414e7a9a9418b71107a561d4b3161a57ecf993a5546d5e5efd0f5f35f6",
]

MANY_NODES_SLOTS = "d3db7420025a9003941196df8cfa3cb5afb7b33107e941869662580a13ed64c8"

MIXED_DIMS_SLOTS = "4e9566c7b4f9b50289e4c7b54ab53b9a49e84d813ed78cc633519f6af675be36"

SWEEP_CSV = "296760cc2d621e94cf199049531ec324be5923f86e226252b298539eeb5fa08c"

ABORTED_SLOTS = "36bf7e491de6eba749b27cf3326d607293bdc6fd4e30f8bc798661da20b041f6 aborted InvalidStateError@648"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def default_outputs(outdir: Path) -> dict:
    """Digest of every file ``ehctrl run`` writes for the shipped config."""
    code = main(["run", "--horizon", str(DEFAULT_HORIZON), "--seed", str(DEFAULT_SEED),
                 "--out", str(outdir)])
    assert code == 0
    return {path.name: _sha256(path) for path in sorted(outdir.iterdir())}


def sweep_digest(outdir: Path) -> str:
    """Digest of the ``sweep.csv`` that ``ehctrl sweep`` writes."""
    assert main(SWEEP_ARGS + ["--out", str(outdir)]) == 0
    return _sha256(outdir / "sweep.csv")


def _with_matrix_plant(config, node: int, plant: PlantModel):
    plants = list(config.plants)
    plants[node] = plant
    p = config.params.p.copy()
    p[node] = required_reception_probability(plant)
    return dataclasses.replace(
        config,
        plants=tuple(plants),
        params=dataclasses.replace(config.params, p=p),
        initial_states=None,
    )


def random_configs():
    """Sized random configs that also vary energy accounting, dual access and
    matrix plants."""
    rng = np.random.default_rng(RANDOM_SEED)
    configs = []
    for _ in range(RANDOM_CASES):
        config = _random_sized_config(rng)
        config = dataclasses.replace(
            config,
            energy_accounting=str(rng.choice(["fluid", "integer"])),
            dual_access=str(rng.choice(["mailbox", "direct"])),
        )
        if rng.random() < 0.3:
            node = int(rng.integers(0, config.count))
            plant = MATRIX_PLANTS[int(rng.integers(0, len(MATRIX_PLANTS)))]
            config = _with_matrix_plant(config, node, plant)
        configs.append(config)
    return configs


def many_nodes_config():
    raw = read_raw(None)
    raw["plants"] = [
        {"a_open": 1.1, "a_closed": 0.15} if i % 2 else {"a_open": 1.05, "a_closed": 0.1}
        for i in range(MANY_NODES)
    ]
    raw["channel"] = {**raw["channel"], "collision_prob": 0.01}
    raw["availability"] = {"mode": "random", "prob": 0.5, "staleness_bound": 10}
    config = build_config(raw, seed=7, horizon=MANY_NODES_HORIZON)
    for node in range(7, MANY_NODES, 8):
        config = _with_matrix_plant(config, node, MATRIX_PLANTS[1])
    return config


def mixed_dims_config():
    """A 4x4 plant next to a 2x2 one, plus a noiseless 2x2 plant with negative
    gains whose state decays through subnormals to zero; the 2x2 plant starts
    at -0.0. Stepping plants of different dimensions through one padded
    stack changes these bytes."""
    raw = read_raw(None)
    raw["plants"] = [
        {"a_open": [[1.02, 0.1, 0.0, 0.0], [0.0, 0.98, 0.1, 0.0],
                    [0.0, 0.0, 1.01, 0.1], [0.05, 0.0, 0.0, 0.95]],
         "a_closed": (np.eye(4) * 0.2).tolist(),
         "noise_cov": [[1.0, 0.3, 0.0, 0.0], [0.3, 1.0, 0.2, 0.0],
                       [0.0, 0.2, 1.0, 0.0], [0.0, 0.0, 0.0, 0.5]],
         "lyapunov_weight": [[2.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.0, 0.0],
                             [0.0, 0.0, 1.0, 0.2], [0.0, 0.0, 0.2, 1.0]]},
        {"a_open": [[1.05, 0.1], [0.0, 1.05]], "a_closed": (np.eye(2) * 0.1).tolist(),
         "noise_cov": np.eye(2).tolist(), "lyapunov_weight": np.eye(2).tolist()},
        {"a_open": [[-1.05, 0.1], [0.0, -1.02]], "a_closed": [[-0.2, 0.0], [0.05, -0.1]],
         "noise_cov": np.zeros((2, 2)).tolist(), "lyapunov_weight": np.eye(2).tolist()},
    ]
    raw["channel"] = {**raw["channel"], "collision_prob": 0.1}
    raw["initial_state"] = [1.0, -0.0, 2.0]
    return build_config(raw, seed=11, horizon=MIXED_DIMS_HORIZON)


def diverging_config():
    """A starved unstable plant whose state overflows: the run aborts."""
    raw = read_raw(None)
    raw["plants"] = [{"a_open": 3.0, "a_closed": 0.1}]
    raw["harvest"] = {"mean": 1e-12, "distribution": "deterministic"}
    raw["battery"] = {"capacity": 20.0, "initial": 0.0}
    raw["required_reception"] = [0.9]
    return build_config(raw, seed=1, horizon=3000)


def slots_digest(config, workdir: Path) -> str:
    """Digest of ``slots.csv``; an aborted run is digested from its partial
    telemetry and tagged with the cause and slot."""
    tag = ""
    try:
        record = run(config).record
    except SimulationAborted as exc:
        record = exc.record
        tag = f" aborted {type(exc.cause).__name__}@{exc.slot}"
    path = workdir / "slots.csv"
    telemetry.write_slots_csv(record, path)
    return _sha256(path) + tag


def test_default_config_outputs(tmp_path):
    assert default_outputs(tmp_path / "out") == DEFAULT_OUTPUTS


def test_sweep_csv(tmp_path):
    assert sweep_digest(tmp_path / "sweep") == SWEEP_CSV


@pytest.mark.filterwarnings("ignore:overflow")
def test_random_config_slots(tmp_path):
    digests = [slots_digest(config, tmp_path) for config in random_configs()]
    assert digests == RANDOM_SLOTS


def test_many_nodes_slots(tmp_path):
    assert slots_digest(many_nodes_config(), tmp_path) == MANY_NODES_SLOTS


def test_mixed_dims_slots(tmp_path):
    assert slots_digest(mixed_dims_config(), tmp_path) == MIXED_DIMS_SLOTS


@pytest.mark.filterwarnings("ignore:overflow")
def test_aborted_run_slots(tmp_path):
    assert slots_digest(diverging_config(), tmp_path) == ABORTED_SLOTS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        print("DEFAULT_OUTPUTS =", default_outputs(work / "out"))
        print("SWEEP_CSV =", repr(sweep_digest(work / "sweep")))
        print("RANDOM_SLOTS =", [slots_digest(c, work) for c in random_configs()])
        print("MANY_NODES_SLOTS =", repr(slots_digest(many_nodes_config(), work)))
        print("MIXED_DIMS_SLOTS =", repr(slots_digest(mixed_dims_config(), work)))
        print("ABORTED_SLOTS =", repr(slots_digest(diverging_config(), work)))
