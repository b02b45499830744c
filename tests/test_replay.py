"""Replay digests: SHA-256 fingerprints of fixed runs, checked in.

Each case runs one command or entry on fixed inputs and hashes what it
writes. The suite's other tests check that a run repeats itself within one
process; these check that it repeats what an earlier commit wrote. A change
that alters an output on purpose updates the digest in the same commit and
says in CHANGES.md which digest changed and why. The digests depend on
numpy's float and random paths, so a mismatch names the numpy version they
were recorded with next to the running one; it does not skip.
"""
import hashlib

import numpy as np
import pytest

from reactplan.cli import main
from reactplan.config import RunConfig
from reactplan.learning import save_dataset, synthetic_dataset
from reactplan.sampler import SamplerConfig, derived_seed, sample_scene
from reactplan.scenarios import builtin_templates

RECORDED_NUMPY = "2.4.6"

DIGESTS = {
    "derived_seed": "ecdf3d8a674c15f70b412e5d8e529b13f207edfe484d1abd659903eda1f23a0b",
    "formats": "50212a194599edd5374fe90fc70e050639f2ee19fd41ae8c547a6ff5dd2c799b",
    "infer/arc_merge": "7d8a2bbe37ee54dcc69eda9f34cb8b5da44f9494a74dbecd18e566df3bf7a20d",
    "infer/left_turn": "62244efb3dc53ce45386b6e98f50ac5059b271270a190043e9cbd142257c1286",
    "infer/merge_dense": "9d5ee2c4751dd9d3cf81eb925932f6e9ae5b1c1b8e43ba4fe7b0f1ea81023ddf",
    "plan/arc_merge": "0481c17dc17fe3ea108a8b0de1def42a0a99af26af1bcca99ab0a243d67deb17",
    "plan/left_turn": "f776e941fdf57a395ca3bc63a73feb61f2a1ff7fbff7eecf4164703f80064656",
    "plan/merge_dense": "3b08d372b78afa1942873ad5a55ee698cf1c569043f7d0d302ef4160b18936b7",
    "sample/arc_merge": "b649eaaa9e120fe5b94b998636ef751d18e8a24061ffcf53318d7117fc06e605",
    "sample/left_turn": "ae3b754e900f5f46e21e80f4f782a1da99dc12f8604910790c60e1be4ef32d62",
    "sample/merge_dense": "d2255547369f8ab16eaafedc31d133e92fc2ba9cb04f01d538852a51d8a826f5",
    "sample_scene": "5c0f3af7b49f73623cd74210ca257e9a79d7c5a201e9b9cb7575bd1759c4cab7",
    "simulate": "63ace07efc9b90278e283be184253fed6742f7a5d49543c8c523735d4f2add6d",
    "train": "11f2281666c9e92684b7f75eb9aa2fea2089124804634dc378d08d54c564e5fa",
}

BUILTINS = sorted(builtin_templates())
SEED_PARTS = [(), (0,), (2 ** 32,), (2 ** 64 + 9,), (13, 2 ** 32, 2 ** 64 + 9)]


def files_digest(root) -> str:
    """One digest of every file under ``root``: relative path, then bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def bytes_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def run_cli(tmp_path, *argv) -> str:
    out = tmp_path / "out"
    assert main(["--out", str(out), *argv]) == 0
    return files_digest(out)


def scenario_path(tmp_path, name):
    path = tmp_path / f"{name}.json"
    builtin_templates()[name].save(path)
    return str(path)


def simulate(tmp_path):
    return run_cli(tmp_path, "--seed", "13", "simulate", "--variants", "3",
                   "--planners", "reactive,nonreactive")


def plan(tmp_path, name):
    scenario, config = scenario_path(tmp_path, name), tmp_path / "config.json"
    RunConfig(set_size=3).save(config)
    h = hashlib.sha256()
    for variant in ("reactive", "nonreactive", "interpolated"):
        h.update(run_cli(tmp_path / variant, "--config", str(config), "plan", scenario,
                         "--variant", variant).encode())
    return h.hexdigest()


def infer(tmp_path, name):
    return run_cli(tmp_path, "infer", scenario_path(tmp_path, name), "--dump-pairwise")


def sample(tmp_path, name):
    h = hashlib.sha256()
    for actor in range(1 + len(builtin_templates()[name].actors)):
        h.update(run_cli(tmp_path / str(actor), "sample", scenario_path(tmp_path, name),
                         "--actor", str(actor)).encode())
    return h.hexdigest()


def train(tmp_path):
    scfg = SamplerConfig(k=6, horizon_steps=6)
    config, data = tmp_path / "config.json", tmp_path / "data.jsonl"
    RunConfig(sampler=scfg).save(config)
    save_dataset(synthetic_dataset(6, seed=3, sampler_cfg=scfg), data)
    return run_cli(tmp_path, "--config", str(config), "train", str(data),
                   "--lr", "0.3", "--epochs", "3")


def formats(tmp_path):
    """The saved bytes of each file format: a run config, a dataset and the
    builtin scenarios."""
    RunConfig(set_size=3, sampler=SamplerConfig(k=5)).save(tmp_path / "config.json")
    save_dataset(synthetic_dataset(4, 3, SamplerConfig()), tmp_path / "data.jsonl")
    for name in BUILTINS:
        scenario_path(tmp_path, name)
    return files_digest(tmp_path)


def scene_samples(tmp_path):
    rng = np.random.default_rng(5)
    poses = np.column_stack([rng.uniform(-50.0, 50.0, (6, 2)), rng.uniform(-4.0, 4.0, 6)])
    speeds = rng.uniform(0.0, 18.0, 6)
    arrays = []
    for parts in SEED_PARTS:
        for cands in sample_scene(poses, speeds, SamplerConfig(k=9, horizon_steps=7), parts):
            arrays += [cands.poses, cands.speeds]
    return bytes_digest(*arrays)


def seed_values(tmp_path):
    return bytes_digest(*(np.array([derived_seed(*parts)] + [derived_seed(*parts, i)
                                                             for i in range(8)],
                                   dtype=np.uint32) for parts in SEED_PARTS))


CASES = {
    "simulate": simulate,
    **{f"plan/{name}": lambda p, name=name: plan(p, name) for name in BUILTINS},
    **{f"infer/{name}": lambda p, name=name: infer(p, name) for name in BUILTINS},
    **{f"sample/{name}": lambda p, name=name: sample(p, name) for name in BUILTINS},
    "train": train,
    "formats": formats,
    "sample_scene": scene_samples,
    "derived_seed": seed_values,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_recorded_digest(tmp_path, case):
    got = CASES[case](tmp_path)
    assert got == DIGESTS.get(case), (
        f"{case} output changed: digest {got}, recorded {DIGESTS.get(case)} "
        f"with numpy {RECORDED_NUMPY}, running numpy {np.__version__}")
