"""Golden artifacts: SHA-256 digests of CLI outputs at fixed seeds.

The digests pin the exact bytes of the urn-family datasets and sidecars,
the datasets of three exemplars sampled through ``GeneralScm.simulate`` and
of the two sampled from labeled exact tables, nine classification reports, the four verification selectors, the
``report`` summary and a shift-localization run, so any refactor of the
urn process, the graph core, the structural models or the CLI plumbing
must reproduce them byte for byte.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from phenocausal.cli import run

# (case id, argv without --out, expected SHA-256 per artifact suffix)
GOLDEN = [
    ("exemplar-urn2",
     ["exemplar", "urn2", "--seed", "7", "--samples", "300"],
     {".csv": "6e8f7a016b2e1bd6d78d32db1c0e35ba429eab50e1df234379dc1c26a80ea423",
      ".json": "446651dc9d0ec3b43fd95d681d4bb61f2ae373f06f0f64cddcb8bdca3e2dbc54"}),
    ("exemplar-urn2-boundary",
     ["exemplar", "urn2", "--kb0", "6", "--kr0", "4", "--rounds", "3",
      "--seed", "7", "--samples", "300"],
     {".csv": "d270b0ea4d0feb993cdd876aa77177fd949f7fb1bd14e041f89a190065a1dcb6",
      ".json": "bbc75e6f36bc090e35f42a443fa17814c81dc89a98acb8e75da707903976aa1b"}),
    ("exemplar-urnN-4",
     ["exemplar", "urnN", "--n", "4", "--seed", "7", "--samples", "300"],
     {".csv": "779d440fcfecd7a4b8bc125fe51710a6699d32478ce50beb8adeee3be206e85f",
      ".json": "c1127ee1fefa25814ce331713440306727efe61421eff53d8daefdd683725ec6"}),
    ("exemplar-urnN-4-high",
     ["exemplar", "urnN", "--n", "4", "--param", "endpoint=high",
      "--seed", "7", "--samples", "300"],
     {".csv": "a9039bffd1f66dde4134feebb163f0da59e80ecb37fee957c3a13d0da06739f4",
      ".json": "de57516b1efada9fdfd4a4787a75fcc5353706143c99268271064e046509334f"}),
    ("exemplar-bundles",
     ["exemplar", "bundles", "--seed", "7", "--samples", "300"],
     {".csv": "4f87203ca43a0626a2d2e14b99a4b3fbf77b8349d0a5448e959450f72add1f00",
      ".json": "d204747098691b547e87511232723c3f793f2ee3be29174d5c7ef1a1e9429a2a"}),
    ("classify-urn2-statistical",
     ["classify", "urn2", "--mode", "statistical", "--enumerate",
      "--seed", "3"],
     {".json": "e9a0049ac62e3d4faa3040976eb43e0ab72430e7f51b97958ec2e93751ac6a4a"}),
    ("classify-urnN-4",
     ["classify", "urnN", "--n", "4", "--enumerate", "--trials", "100",
      "--seed", "3"],
     {".json": "e68678b3b642559f923380c4edd9d544a7154201632c2044590e96830e2055ac"}),
    ("verify-prop1",
     ["verify", "--which", "prop1", "--trials", "6", "--seed", "5"],
     {".json": "2dfe8cd9f6d1425bf560d76a71b6df98d2ad9a56fbc878a8b2f1295df1dbd092"}),
    ("verify-boundary",
     ["verify", "--which", "boundary", "--trials", "6", "--seed", "5"],
     {".json": "1577c343da0318efb6be75aa23370fd44cafdae558c8d7f4e4325076b64f4f59"}),
    ("verify-embedding",
     ["verify", "--which", "embedding", "--trials", "6", "--seed", "5"],
     {".json": "8e65918be106626528ded1301442ec8c89cafcc069e77aeffc70cfc033ced4a4"}),
    ("verify-all",
     ["verify", "--which", "all", "--trials", "6", "--seed", "5"],
     {".json": "ca329aa0ec963b5c67e7bccb47fe7efd725f72851310e17e047ac8cdc41d5c53"}),
    ("report",
     ["report", "--seed", "3"],
     {".json": "849be7c4f7228ece03b0c343b7c014faf5e8c522850f195a88b4884efd5703fe"}),
    ("exemplar-rabbits1",
     ["exemplar", "rabbits1", "--seed", "7", "--samples", "300"],
     {".csv": "005c96be9ab2560e3860e072d6734b23324a118fd2e1d54d5bcf1f04d1dd41cb",
      ".json": "df1138fa43822453dd5677d1092e9a31da096b192fb59e3758284ff61f4c4df2"}),
    ("exemplar-macro1",
     ["exemplar", "macro1", "--seed", "7", "--samples", "300"],
     {".csv": "b905a452570b16e6b900142750d83495a59281de94773dcfcbfbad6a83725f3b",
      ".json": "3dd1e2b111b252f73f721ed653bae03270d32bd95bdd23efbee1d92eb910ef90"}),
    ("classify-bundles-4",
     ["classify", "bundles", "--n", "4", "--enumerate", "--trials", "100",
      "--seed", "3"],
     {".json": "dbdcc553012bf1231b409f66623ceee2266d23c109c20effc007c47358d3f922"}),
    ("exemplar-urnN-3",
     ["exemplar", "urnN", "--n", "3", "--seed", "7", "--samples", "300"],
     {".csv": "d5e5795b70040900ccfc6b6b1b42a8bb810d23bc301f6253cae65cb7b38b6929",
      ".json": "657936950a2c21f8cd35592b521b466b0df51f98eb0c90e0ee65a9d2229bc668"}),
    ("exemplar-bundles-3",
     ["exemplar", "bundles", "--n", "3", "--seed", "7", "--samples", "300"],
     {".csv": "f4baf43d0217d6e4e671e294d613082b07882874ad3b053d72c1324a962a14fd",
      ".json": "1b150954551625714675e6d1f0756961460e44a3a0ec438fe48d89c7fd9ace3e"}),
    ("classify-urnN-4-high",
     ["classify", "urnN", "--n", "4", "--param", "endpoint=high", "--enumerate",
      "--trials", "100", "--seed", "3"],
     {".json": "20519c20597261b850e0ccc24b2626fc5f8922bef710a3aaa6ca892bd7d2133f"}),
    ("classify-urn2-unit",
     ["classify", "urn2", "--mode", "unit", "--enumerate", "--trials", "100",
      "--seed", "3"],
     {".json": "5b3336fdec64f5395c3a106e1c92e6c81d0e7fabbbb061fc2374f07556a81a35"}),
    ("classify-rabbits1",
     ["classify", "rabbits1", "--enumerate", "--seed", "3"],
     {".json": "9ac38bc560840e59de1aead27fcd8c878c197f128254ca3310ce4de1fb75d342"}),
    ("exemplar-macro2",
     ["exemplar", "macro2", "--seed", "7", "--samples", "300"],
     {".csv": "faad34fbec32c9af10c964598e7a2deefe019cda73eacbe3867912e45bfb55ff",
      ".json": "070e73694db3c23c430f541d93ccdec72f2f13422ad038f5afa5146e6e211469"}),
    ("exemplar-balltrack",
     ["exemplar", "balltrack", "--seed", "7", "--samples", "300"],
     {".csv": "4005fd9c1ed6758fa6dce4243f4fb89ba9b491bb60daa79fe580336d3355552b",
      ".json": "6fb2f0ca2092d4b7ef331c1c819f746ea6ee788d75033351eb28c4af8c5b92fc"}),
    ("exemplar-farmers",
     ["exemplar", "farmers", "--seed", "7", "--samples", "300"],
     {".csv": "c8f89ce061610a743aef314da68ac2476acd4f2ba778d02eb63f6c5a27a57d83",
      ".json": "c73eed303ad80ce3df3888f0195653b2e47b1e57dbb8d28b7aa9f7fd9313a883"}),
    ("classify-balltrack",
     ["classify", "balltrack", "--enumerate", "--seed", "3"],
     {".json": "dafd3c2a56d4a04cad050ae7e30d7f34289557294e23d4a76ed11258bce80c6f"}),
    ("classify-farmers",
     ["classify", "farmers", "--enumerate", "--seed", "3"],
     {".json": "c8694b89599903bd712c70eb8d7a6b0df6e105a29664c12e30cd14281686c48d"}),
    ("classify-macro2",
     ["classify", "macro2", "--enumerate", "--trials", "100", "--seed", "3"],
     {".json": "2137722769a173473821211f533c87de998c4c05df2385029955c0bf28ead496"}),
]


@pytest.mark.parametrize("case,argv,digests", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_artifact_digests(case, argv, digests, tmp_path):
    stem = tmp_path / case
    primary = stem.with_suffix(".csv" if argv[0] == "exemplar" else ".json")
    assert run(argv + ["--out", str(primary)]) == 0
    got = {suffix: hashlib.sha256(stem.with_suffix(suffix).read_bytes()).hexdigest()
           for suffix in digests}
    assert got == digests


def test_golden_discover_shift(tmp_path, monkeypatch):
    # relative paths: the artifact records its --in argument verbatim
    monkeypatch.chdir(tmp_path)
    common = ["--rounds", "3", "--samples", "2000"]
    assert run(["exemplar", "urn2", "--kb0", "50", "--kr0", "50", "--seed", "1",
                "--out", "env1.csv"] + common) == 0
    assert run(["exemplar", "urn2", "--kb0", "50", "--kr0", "52", "--seed", "2",
                "--out", "env2.csv"] + common) == 0
    Path("graph.txt").write_text("Kb -> Kr\n")
    assert run(["discover", "--method", "shift", "--in", "env1.csv",
                "--in2", "env2.csv", "--graph", "graph.txt", "--seed", "3",
                "--out", "shift.json"]) == 0
    digest = hashlib.sha256(Path("shift.json").read_bytes()).hexdigest()
    assert digest == "82aba2f3e7671ca36fe6ece17286d089f05b922ee64c9708e90bc92e46b51c3a"
