"""Golden artifacts: SHA-256 digests of CLI outputs at fixed seeds.

The digests pin the exact bytes of the urn-family datasets and sidecars,
two classification reports and the four verification selectors, so any
refactor of the urn process, its exact joint or the CLI plumbing must
reproduce them byte for byte.
"""

from __future__ import annotations

import hashlib

import pytest

from phenocausal.cli import run

# (case id, argv without --out, expected SHA-256 per artifact suffix)
GOLDEN = [
    ("exemplar-urn2",
     ["exemplar", "urn2", "--seed", "7", "--samples", "300"],
     {".csv": "6e8f7a016b2e1bd6d78d32db1c0e35ba429eab50e1df234379dc1c26a80ea423",
      ".json": "eba2afcf1f24a0fab7d7e22d759fbb21dee8ee6809f43b20454d0f82ac56df0c"}),
    ("exemplar-urn2-boundary",
     ["exemplar", "urn2", "--kb0", "6", "--kr0", "4", "--rounds", "3",
      "--seed", "7", "--samples", "300"],
     {".csv": "d270b0ea4d0feb993cdd876aa77177fd949f7fb1bd14e041f89a190065a1dcb6",
      ".json": "f6f4f62eebe4e25d92fbca57e032c49f406a1ff8072d05d5bd59bdb24def75c3"}),
    ("exemplar-urnN-4",
     ["exemplar", "urnN", "--n", "4", "--seed", "7", "--samples", "300"],
     {".csv": "779d440fcfecd7a4b8bc125fe51710a6699d32478ce50beb8adeee3be206e85f",
      ".json": "248a34da6d150e6911ed67c2c19dfcdd36359d00ad5c358d700198582b347791"}),
    ("exemplar-urnN-4-high",
     ["exemplar", "urnN", "--n", "4", "--param", "endpoint=high",
      "--seed", "7", "--samples", "300"],
     {".csv": "a9039bffd1f66dde4134feebb163f0da59e80ecb37fee957c3a13d0da06739f4",
      ".json": "b6738bd1af208389c1f35f1f9cc71ef336e156a9cfaaf58637d75686f0bcc3f4"}),
    ("exemplar-bundles",
     ["exemplar", "bundles", "--seed", "7", "--samples", "300"],
     {".csv": "4f87203ca43a0626a2d2e14b99a4b3fbf77b8349d0a5448e959450f72add1f00",
      ".json": "95ef937698bc112041aff8e37fc0cb71281b9ce8110e3d7d463d9d3fce7e7d6c"}),
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
     {".json": "4af51135e0d263c746992d3f9562ad70e9cb6f3a829357ad1e25e1ab29c5632b"}),
    ("verify-embedding",
     ["verify", "--which", "embedding", "--trials", "6", "--seed", "5"],
     {".json": "415a902ebd0858713737c8b90db1ed64d3723dca076d754b7fc1bf2e92e1c04e"}),
    ("verify-all",
     ["verify", "--which", "all", "--trials", "6", "--seed", "5"],
     {".json": "7a5f069659699b9df148a4bd8521e6b319daab42bb47449f4a1832f15c331efa"}),
]


@pytest.mark.parametrize("case,argv,digests", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_artifact_digests(case, argv, digests, tmp_path):
    stem = tmp_path / case
    primary = stem.with_suffix(".csv" if argv[0] == "exemplar" else ".json")
    assert run(argv + ["--out", str(primary)]) == 0
    got = {suffix: hashlib.sha256(stem.with_suffix(suffix).read_bytes()).hexdigest()
           for suffix in digests}
    assert got == digests
