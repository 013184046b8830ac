"""Golden sha256 digests of simulation outputs.

The digests below were taken from the per-node reference engine, except
``MIXED_DIMS_SLOTS``, taken from the array engine that still stepped each
matrix plant with its own matmul, ``SWEEP_CSV``, taken while ``sweep``
still formatted its rows by hand, ``SMALL_BATTERY_SLOTS``, taken from the
engine that had the array form of the slot core only, and
``RANDOM_SLOTS[7]``, ``[8]``, ``[12]``, ``[19]`` and ``[23]``, taken from
the engine whose nodes read each other's multipliers through the mailbox
only. Those five configs once read the other nodes' current multipliers
in place of their stale mailbox copies; the other configs that did so
have one node, always-on exchanges, or no stale copy that changed a z,
and kept their digests. Any engine that
claims to be the same engine must reproduce them byte for byte; a digest
may only change together with an explanation of why the output changed.
Print the digests of the current tree with

    PYTHONPATH=src python tests/test_golden.py

Runs of up to ``ehctrl.sim.SCALAR_MAX_NODES`` nodes take the scalar form of
the slot core. The abort pins that edit scheduler results set that
threshold to 0, because the functions they patch are called by the array
form only.
"""

import dataclasses
import hashlib
import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import ehctrl.scheduler
import ehctrl.sim
from ehctrl import telemetry
from ehctrl.cli import main
from ehctrl.config import build_config, read_raw
from ehctrl.control import PlantModel, required_reception_probability
from ehctrl.sim import SimulationAborted, run, summarize

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
    "d29aced8d3ed9b0fd517b2cd7026d1306cce6d9ee440860162e2d57cf9f94bc5",
    "94628197cb0253dba51ef36ef03ccd672b7f27fc6baf172058046cc701658da8",
    "b8fd9de1d3392823802c3968b6e3cab67cf105c38cfd42ba7fb3c5edb04d157f",
    "4339ce98307a7ef8d1a132d59f75a670d5f927c0e9277f66403a8bdf58a079cb",
    "367329a0c742f4a2beca4bca904ce35db40f1ee520a53e9f34d161efe0295a34",
    "b37410b6d396aad2cab296b8dca04d36bdb9a3ed86efdfc5fd1eeb51224cf231",
    "b35e62cfbbc0014c69945f25562476d402c342c95221e2cc41bea3912c0cb59e",
    "fcbb4d11e9aa30d4524ed005f7d190d4c7a80a6956fb1f9be84cfc35367e49f2",
    "e131fc88447d6e3c3d0f52abf7740440151fca8d88f3637706502e72b4022139",
    "249d691a7db4d6339814227b0c490597e28c8a85acf2ec4f36de6ceca38b0f02",
    "bd25f138b254ba814b7bf6226c89ef27d1fad2ae5bfb848b334c9a3ec2cb4064",
    "f9b39fdcb207a14d58d7c99d95798f76d5fce886c41d6430a37c04c1e5cec84e",
    "f613bd88dcae7d86f14010c8f6e7135285f32ed154fe18f38bcab860d6ab14d7",
    "0b91f673ebc0d9afe981702b4d822dcddc45c821a1db57390a68e161f78f52dc",
    "71ef6f585cb63c1e6d85fa171890549eba113f5102bf6159e0285032d30174fa",
    "3de2eda0ce6a1c18c1b9a34e9aad7020be7d9d8572979f96516c79d3ef0cdf46",
    "425261e2fab9ec440c36018dc7be300414214441c36ef8b4bf09ae15aa90dec8",
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

# Aborts of every breach kind at the last slot of the first draw chunk (255)
# and the first slot of the second (256), then chunks that breach two ways,
# then breaches in the last slot of the horizon (``of`` names the horizon):
# of a short last chunk, and of a horizon that is a multiple of the chunk.
# The last-slot pins were taken from the engine that still carried the state
# after a chunk's last slot outside the record.
ABORT_SLOTS = (255, 256)
BREACH_KINDS = ("nonfinite", "causality", "dual_bound", "mirror")
ABORT_CASES = (
    *(f"{kind}@{slot}" for kind in BREACH_KINDS for slot in ABORT_SLOTS),
    "dual_bound@290+nonfinite@300",
    "nonfinite@300+causality@300",
    "nonfinite@300+dual_bound@300",
    "dual_bound@300+mirror@300",
    *(f"{kind}@299 of 300" for kind in BREACH_KINDS),
    *(f"{kind}@511 of 512" for kind in ("dual_bound", "mirror", "nonfinite")),
)
ABORTS = {
    "nonfinite@255": "b810a8d2915fd8f5b22d8ce2c169155bc3185010f94d9710feeb5841aa8310fd InvalidStateError/nonfinite@255 rows=256 msg=e5ccb1847cbf973d nonfinite=1",
    "nonfinite@256": "bb0222b6c678fbe294d0ac2d662245b4edd82053a78b8aedfa5fed0b5bea4840 InvalidStateError/nonfinite@256 rows=257 msg=3ccbf727b395efc5 nonfinite=1",
    "causality@255": "b023eafc5654fc698d825f0e9c92937c7b059bdf11b6734c57bc879bc59b3f64 EnergyCausalityError/causality@255 rows=256 msg=e6206ff79337981b causality=1",
    "causality@256": "004d0395301f453ceba191065146a0f5acdb0066a7d3cec8719eef58d17431be EnergyCausalityError/causality@256 rows=257 msg=79e67bb04330c3a7 causality=1",
    "dual_bound@255": "e29c56f92fe5b39efe33ec30d99067b3e54c453a7a08488376a6a29691845fa0 InvariantViolation/dual_bound@255 rows=256 msg=18c8757840424728 dual_bound=1",
    "dual_bound@256": "a0c8a52f3bb998de27c510a083c8962841131c05d15d385830402f9057d545be InvariantViolation/dual_bound@256 rows=257 msg=fccefa652fee6fd9 dual_bound=1",
    "mirror@255": "e29c56f92fe5b39efe33ec30d99067b3e54c453a7a08488376a6a29691845fa0 InvariantViolation/mirror@255 rows=256 msg=d23e7e4c3f7ce118 mirror=1",
    "mirror@256": "a0c8a52f3bb998de27c510a083c8962841131c05d15d385830402f9057d545be InvariantViolation/mirror@256 rows=257 msg=ab3012258206d0f5 mirror=1",
    "dual_bound@290+nonfinite@300": "384757535c8cede79a22ee340a2d4a53592cc469903095767e321c9a27dc4155 InvariantViolation/dual_bound@290 rows=291 msg=16fbf0250c57fdff dual_bound=1",
    "nonfinite@300+causality@300": "34079a1ccedc3d56a43687c4d478f3f13443926110c0a958fe64100b4a447f41 InvalidStateError/nonfinite@300 rows=301 msg=0156e0cd7653f154 nonfinite=1",
    "nonfinite@300+dual_bound@300": "cb083e58ac32a106083dec4e6d82fae52b35b5f728eea87b04ad8aec80f855db InvalidStateError/nonfinite@300 rows=301 msg=0156e0cd7653f154 nonfinite=1",
    "dual_bound@300+mirror@300": "36708e52edc99d6844fdb1580a0b81868d219f23cef8765de7afc1a6cd591334 InvariantViolation/mirror@300 rows=301 msg=b8c2c7d6575550df mirror=1",
    "nonfinite@299 of 300": "c3968086500684452935fb607514d7d5015377cf2513cfef74eade503e0752f8 InvalidStateError/nonfinite@299 rows=300 msg=bc69b5579306c3fe nonfinite=1",
    "causality@299 of 300": "fdf209cd96232253f69f55f8e3403d060a65b50a772d4e229114cab2f278d299 EnergyCausalityError/causality@299 rows=300 msg=4339105f6a0a04a8 causality=1",
    "dual_bound@299 of 300": "a4d2eec350194bcf7f930c786f945d07560c4da91c83e05d88688337f8493795 InvariantViolation/dual_bound@299 rows=300 msg=99d849327362d6e3 dual_bound=1",
    "mirror@299 of 300": "a4d2eec350194bcf7f930c786f945d07560c4da91c83e05d88688337f8493795 InvariantViolation/mirror@299 rows=300 msg=4238fb0aaeed2474 mirror=1",
    "dual_bound@511 of 512": "f497adab0fcab98d1416cf42551ed1b0a8a1f5485a3f240118b31ffc7078af90 InvariantViolation/dual_bound@511 rows=512 msg=801f2a5720129ecc dual_bound=1",
    "mirror@511 of 512": "f497adab0fcab98d1416cf42551ed1b0a8a1f5485a3f240118b31ffc7078af90 InvariantViolation/mirror@511 rows=512 msg=8d9c9fccb7bf526a mirror=1",
    "nonfinite@511 of 512": "03e23b94f62d3512e7320e60ae22dc97090c0eb85bbce10b56dd5fb1146d8883 InvalidStateError/nonfinite@511 rows=512 msg=b4333f2f4ae02ab7 nonfinite=1",
}

INTEGER_PIGGYBACK_SLOTS = "3c324f9bdac3e5d01f9f028b535c50adf6bf104004dc09915e78939bf182c0f4"

# An undersized battery breaks causality with no patch, in either form of
# the slot core.
SMALL_BATTERY_SLOTS = "1315c34fbc69a1e14dbf5945ee67669f5c7c8ae6c14cc24c5bc85ea75aed5dba aborted EnergyCausalityError@23"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def default_outputs(outdir: Path) -> dict:
    """Digest of every file ``ehctrl run`` and then ``ehctrl figures`` write
    into one directory for the shipped config."""
    common = ["--horizon", str(DEFAULT_HORIZON), "--seed", str(DEFAULT_SEED),
              "--out", str(outdir)]
    assert main(["run", *common]) == 0
    assert {path.name for path in outdir.iterdir()} == {"slots.csv", "summary.csv", "summary.json"}
    assert main(["figures", *common]) == 0
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
    """Sized random configs that also vary energy accounting and matrix
    plants."""
    rng = np.random.default_rng(RANDOM_SEED)
    configs = []
    for _ in range(RANDOM_CASES):
        config = _random_sized_config(rng)
        config = dataclasses.replace(
            config, energy_accounting=str(rng.choice(["fluid", "integer"]))
        )
        # The draw that once chose how a config read the other nodes'
        # multipliers; discarding it keeps every config's later draws, so the
        # configs whose reads it never changed keep their pins.
        rng.choice(["mailbox", "direct"])
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


def overflow_config(slot: int, horizon: int):
    """A starved, noiseless plant that doubles every slot, received or not,
    from 2**(1023 - slot): its state is exact until the step of ``slot``
    overflows it."""
    raw = read_raw(None)
    raw["plants"] = [{"a_open": 2.0, "a_closed": 2.0, "noise_cov": 0.0}]
    raw["required_reception"] = [0.5]
    raw["harvest"] = {"mean": 1e-12, "distribution": "deterministic"}
    raw["battery"] = {"capacity": 20.0, "initial": 0.0}
    raw["initial_state"] = 2.0 ** (1023 - slot)
    return build_config(raw, seed=1, horizon=horizon)


def _at_call(name: str, slot: int, edit):
    """Wrapper of the current ``ehctrl.scheduler.<name>``, called once per
    slot, that passes its result in ``slot`` through ``edit``."""
    inner = getattr(ehctrl.scheduler, name)
    calls = itertools.count()

    def wrapper(*args, **kwargs):
        result = inner(*args, **kwargs)
        return edit(result, *args) if next(calls) == slot else result

    return wrapper


def _overspend(z, *args):
    return np.full(z.shape, 50.0)


def _over_cap(stepped, phi, nu, beta, grads, params, *args):
    node = nu.shape[0] - 1
    stepped[1][node, 0] = params.nu_bar[node, 0] + params.epsilon + 1.0
    return stepped


def _off_mirror(stepped, *args):
    stepped[2][0] += 0.5
    return stepped


_BREACHES = {
    "causality": ("compute_z", _overspend),
    "dual_bound": ("apply_dual_step", _over_cap),
    "mirror": ("apply_dual_step", _off_mirror),
}


def abort_case(case: str):
    """Config and scheduler edits ``(name, edit, slot)`` of ``case``, breaches
    ``kind@slot`` joined by ``+``, then optionally `` of <horizon>`` (300
    slots past the last breach otherwise): ``nonfinite`` overflows the plant
    of :func:`overflow_config`, the other kinds edit the default config's
    scheduler in that slot."""
    case, _, horizon = case.partition(" of ")
    breaches = {kind: int(slot) for kind, slot in
                (part.split("@") for part in case.split("+"))}
    horizon = int(horizon) if horizon else max(breaches.values()) + 300
    if "nonfinite" in breaches:
        config = overflow_config(breaches["nonfinite"], horizon)
    else:
        config = build_config(read_raw(None), seed=1, horizon=horizon)
    return config, [(*_BREACHES[kind], slot) for kind, slot in breaches.items()
                    if kind != "nonfinite"]


def abort_digest(case: str, workdir: Path) -> str:
    """Digest of the partial ``slots.csv`` of a run that must abort, tagged
    with the cause's type, kind and slot, a digest of its message and the
    nonzero violation counters."""
    config, edits = abort_case(case)
    with pytest.MonkeyPatch.context() as mp:
        if edits:  # the scheduler seams exist in the array core only
            mp.setattr(ehctrl.sim, "SCALAR_MAX_NODES", 0)
        for name, edit, slot in edits:  # edits of one function nest
            mp.setattr(ehctrl.scheduler, name, _at_call(name, slot, edit))
        try:
            run(config)
        except SimulationAborted as exc:
            aborted = exc
        else:
            raise AssertionError(f"{case} did not abort")
    cause = aborted.cause
    path = workdir / "slots.csv"
    telemetry.write_slots_csv(aborted.record, path)
    message = hashlib.sha256(str(aborted).encode()).hexdigest()[:16]
    violations = summarize(aborted.record).violations
    counts = ",".join(f"{k}={v}" for k, v in sorted(violations.items()) if v)
    return (f"{_sha256(path)} {type(cause).__name__}/{cause.kind}@{aborted.slot}"
            f" rows={aborted.record.horizon} msg={message} {counts}")


def integer_piggyback_config():
    """Integer accounting under piggyback: exchanges ride on transmissions
    that the battery gates on whole units."""
    raw = read_raw(None)
    raw["energy_accounting"] = "integer"
    raw["availability"] = {"mode": "piggyback", "prob": 1.0, "staleness_bound": 5}
    raw["harvest"] = {"mean": 0.25, "distribution": "uniform"}
    raw["battery"] = {"capacity": 20.0, "initial": 0.0}
    return build_config(raw, seed=3, horizon=DEFAULT_HORIZON)


def small_battery_config():
    """The shipped config with 3-unit batteries, far below the sizing rule:
    the run aborts on causality at slot 23."""
    raw = read_raw(None)
    raw["battery"] = {"capacity": 3.0}
    return build_config(raw, seed=DEFAULT_SEED, horizon=DEFAULT_HORIZON)


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


def test_random_config_slots(tmp_path):
    digests = [slots_digest(config, tmp_path) for config in random_configs()]
    assert digests == RANDOM_SLOTS


def test_many_nodes_slots(tmp_path):
    assert slots_digest(many_nodes_config(), tmp_path) == MANY_NODES_SLOTS


def test_mixed_dims_slots(tmp_path):
    assert slots_digest(mixed_dims_config(), tmp_path) == MIXED_DIMS_SLOTS


def test_aborted_run_slots(tmp_path):
    assert slots_digest(diverging_config(), tmp_path) == ABORTED_SLOTS


@pytest.mark.parametrize("case", ABORT_CASES)
def test_abort_slots(case, tmp_path):
    assert abort_digest(case, tmp_path) == ABORTS[case]


def test_integer_piggyback_slots(tmp_path):
    assert slots_digest(integer_piggyback_config(), tmp_path) == INTEGER_PIGGYBACK_SLOTS


@pytest.mark.parametrize("scalar_max_nodes", [ehctrl.sim.SCALAR_MAX_NODES, 0],
                         ids=["scalar-core", "array-core"])
def test_small_battery_abort_slots(scalar_max_nodes, tmp_path, monkeypatch):
    monkeypatch.setattr(ehctrl.sim, "SCALAR_MAX_NODES", scalar_max_nodes)
    assert slots_digest(small_battery_config(), tmp_path) == SMALL_BATTERY_SLOTS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        print("DEFAULT_OUTPUTS =", default_outputs(work / "out"))
        print("SWEEP_CSV =", repr(sweep_digest(work / "sweep")))
        print("RANDOM_SLOTS =", [slots_digest(c, work) for c in random_configs()])
        print("MANY_NODES_SLOTS =", repr(slots_digest(many_nodes_config(), work)))
        print("MIXED_DIMS_SLOTS =", repr(slots_digest(mixed_dims_config(), work)))
        print("ABORTED_SLOTS =", repr(slots_digest(diverging_config(), work)))
        print("ABORTS =", {case: abort_digest(case, work) for case in ABORT_CASES})
        print("INTEGER_PIGGYBACK_SLOTS =",
              repr(slots_digest(integer_piggyback_config(), work)))
        print("SMALL_BATTERY_SLOTS =", repr(slots_digest(small_battery_config(), work)))
