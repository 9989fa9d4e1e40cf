"""Every output of every benchmark workload keeps its bits, and so do `balance` and `scaling`.

Each workload's config comes from `perfbench/workloads.py` at seed 1, so the
pins follow the benchmark.  No workload runs `balance` or `scaling`, so each
gets a small run of its own here.  The digests hold on numpy 2.4.6 with its
bundled pocketfft, as the other pins in `test_cli.py` do; a different FFT or
SIMD build may move them.  A change that moves any of these files updates its
digest here and says why.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from kolmobox import cli

ROOT = Path(__file__).resolve().parents[1]


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass resolves its module by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = load_workloads()

# the rothe_2d_reg files last moved when the Rothe iterate became spectral, with the
# midrange preconditioner and the handed-over predictor defect; the others have kept
# their bits since the solver took its present form
OUTPUT_SHA256 = {
    "decay_1d": {
        "series.ndjson": "604bc526b2945380e28e67a929068c84dfaaad7299f3c746e632d6641af50d96",
        "summary.json": "c1b06a47ebba1e9176a4907c9450d0e9a4c86ce48d535f66901b12648669e039",
    },
    "envelope_2d_reg": {
        "series.ndjson": "bee1052f0dbafdd00af2f730e720559b6f7f66e7bd5a7a56c0b6a67e414b3f7e",
        "snap_0.000000.kbox": "499413223dc8ddbf40ecae0158468ab892968803a5aa0f5ef1494c86e9163c99",
        "snap_0.002500.kbox": "73e6648e8165bdd447657a0fdddafeb162fb0463268e76abb1c8fe3b14d166b2",
        "snap_0.005000.kbox": "73168275d9e11dd0c557eb38df054533062968da21f6c9683828ce8c264e5f92",
        "snap_0.007500.kbox": "2450ab10754d827e9b5d596b9aa4abd3e54be47a44d51f9d83ce1237bb0b1ed7",
        "snap_0.010000.kbox": "81c634e64459f7cc9c7e4386a0cfcdfdec11aebde01c1db0283ac8788dfe617b",
        "snap_0.012500.kbox": "03e818134fa449c1aeb6022a6a82d4f36d74848f09f6e8d45803b9ed7cc51eda",
        "snap_0.015000.kbox": "0ec9f8662e17a860b6fa2996aa61cf237d1b26b832340fe0a6b8dd935129b825",
        "snap_0.017500.kbox": "87927bc31827cb734abcc2d50a257b5c659d539c4b3a5e9b2d4a929051df2e81",
        "snap_0.020000.kbox": "2e6302692a745e206194868da6f0781547c4ed3d3a6085dda7220a71cffa5f10",
        "summary.json": "9e84f039ac4a089138c0861d0bccf0a05a89f3103a932ec8b96238bf10fb1c31",
    },
    "rothe_2d_reg": {
        "series.ndjson": "371b4caffb443e9cd4b999fef16dc08932e33736f5205ab639741fcb2eb4de27",
        "snap_0.000000.kbox": "4e3d79ea89927bd5f0282781101ee9a52aac8c3710c00ad9a2382e964f059711",
        "snap_0.004000.kbox": "16a7e48757303b38e42f18ec329039b93cc9943a567f62918474c9f763e03819",
        "snap_0.008000.kbox": "e6350b9c15f424d3477a62a0fe01de70768ab5f5250361d976130551b8f44b68",
        "snap_0.012000.kbox": "79b27566289c48f6d086ab4246b55f5892b9b86bcd892ac886a59f1f2698a843",
        "snap_0.016000.kbox": "0afd29146461499eb31f616b4a4e171d0c372973f28abd2126c0efe1bd844eea",
        "snap_0.020000.kbox": "b5c2aad5116a1ac34638ab8d2e7d964167f2e8bf8fc70e6b54ec5954670ae3c7",
        "summary.json": "27832bb4d3533c44b9df24ece814b5b6403518dff62dbd964cc7ca8211d3324e",
    },
    "forced_3d_pair": {
        "series.ndjson": "7c9b0a4904160abf2e3f1e4d7d83f9ab846b112813d54f0122a234a6b992fcb3",
        "summary.json": "ad592e38f18696e1180f358b1cbee0e491477fb17498d3f39c5aa573f1f3833e",
    },
}


# the two commands that no workload runs: a regularized 2D balance pair and an
# unregularized, forced 3D scaling twin
COMMAND_RUNS = {
    "balance_2d_reg": ("balance", """
dim = 2
n = 16
side = 6.283185307179586
regularized = true
eps = 1e-3
r = 3.2
t_end = 0.4
sample_every = 0.05
ic = perturbed
perturb_modes = u1:1:1:0.5, u2:0:2:0.5, omega:0:1:0.1, k:1:1:0.2
guard = false
""", {
        "balance.json": "a0058b111d09ec9fa17504769198c7a0dfcdb68074dccdad53acdaea2690d8eb",
        "series.ndjson": "701aea68204d06b912000859a47093bef16db5ce355ceb9f11510cff1910418f",
        "summary.json": "cb65020f81528ae8bed7dc1020172106014a02e3a95075ab19c1fcee000b9247",
    }),
    "scaling_3d_forced": ("scaling", """
dim = 3
n = 8
side = 6.283185307179586
t_end = 0.5
sample_every = 0.05
ic = perturbed
perturb_modes = u1:1:1:0.3, u2:0:2:0.3, u3:2:1:0.3, omega:0:1:0.1, k:1:1:0.1
forcing = single_mode
forcing_axis = 1
forcing_wavenumber = 1
forcing_amplitude = 0.5
forcing_component = 0
""", {
        "summary.json": "948034773e99acc7206c2ac8fc1e13e7df200935a9fa4471c9d213b4b680a8a0",
    }),
}


@pytest.mark.parametrize("name", sorted(OUTPUT_SHA256))
def test_workload_outputs_are_pinned(tmp_path, capsys, name):
    workload = WORKLOADS[name]
    cfg = tmp_path / "workload.cfg"
    cfg.write_text(workload.config_text(1), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([workload.command, "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    pinned = OUTPUT_SHA256[name]
    assert sorted(digests) == sorted(pinned), "the command wrote other files"
    moved = [f for f in sorted(pinned) if digests[f] != pinned[f]]
    assert moved == [], f"{name}: outputs that moved: {moved}"


@pytest.mark.parametrize("name", sorted(COMMAND_RUNS))
def test_command_outputs_are_pinned(tmp_path, capsys, name):
    command, text, pinned = COMMAND_RUNS[name]
    cfg = tmp_path / "command.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert sorted(digests) == sorted(pinned), "the command wrote other files"
    moved = [f for f in sorted(pinned) if digests[f] != pinned[f]]
    assert moved == [], f"{name}: outputs that moved: {moved}"
