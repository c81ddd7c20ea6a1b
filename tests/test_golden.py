"""Golden bytes: a pure refactor must not change any file the CLI writes.

The sha256 of every output of a few small CLI runs is pinned here. The
hashes were recorded before the skeleton and the dataset became columnar,
so this test is what holds that change (and any later pure refactor) to
"same seed, same bytes". A PR that changes output bytes on purpose updates
these hashes and says so in CHANGES.md.
"""

import hashlib

import pytest

from prmbench.cli import run_cli

# (classes, objects, seed) -> file name -> sha256, default --kmax and formats.
GOLDEN = {
    (4, 300, 0): {
        "clazz0.csv": "91ae02eab9d4fa6109dc4c502f680c6d709b60b3397fbc95c7cc4851a4f9da4c",
        "clazz1.csv": "c25b2cdf85bbcefc6e84587403555d45add69e1241c4a346084e54487b850c77",
        "clazz2.csv": "2201f160ffaa159ba67aab0f91e353b7d47267af98991e1c5bd47ecea95ecde7",
        "clazz3.csv": "9976fea31f457a2bb4b7bc11ffa26e86808ad41dc4259235912a46b5cdc590e0",
        "data.sql": "263658d0c6812874d989209dd6cf97f439462a07e2a4b345c1f1cc507e23da8b",
        "model.xml": "a44cf4225be696cd95605650fb2cf0d190e7c3de39c4503a7ea0fcd12a3dfc8d",
        "report.txt": "02cdc3b15bf7a5ad4faf4439f7928f8674f0bab0b95d4c5c7da45f1dc78d65be",
    },
    (4, 300, 1): {
        "clazz0.csv": "ea36762dbd414e42419c6e9d3081057cde754aff80f11e0475bf1b6c12995e16",
        "clazz1.csv": "44d7df9fde200de72cae25f3e95c5c69a328873d0a660c75b8b236c27d4cb07f",
        "clazz2.csv": "1dde26abbb3a86ab8fd8b6b1648b7a5bfdfff8bb7db32b94a5eb1753d41453b3",
        "clazz3.csv": "af3f24424470ef372bfe552bd4afa7bec5cfbaacb7b0f00b74d1f791ac8a0e33",
        "data.sql": "b97a9b721d0bb8c4d5cafacfed9106983e43c89c4fc817e2469824fdab2ee42c",
        "model.xml": "6902ffded8ac76b99c6b87d9572ff1c6247de1ebd9e425cf96732595cea389b4",
        "report.txt": "c687e955663b7cefe3d59e63f878c0b88015a9d54c96d19114c1ded62cfc958c",
    },
    (4, 300, 2): {
        "clazz0.csv": "ce6fd44f5a72e125840868f75e7cb9473c9bfca47dbfceb598e13524981e4ad7",
        "clazz1.csv": "fabbcb2b0714c86cf6bc847004d5071c4466dcd2a76d5ca717e222c70d5776c8",
        "clazz2.csv": "447359468696ed23850a42d00c06d62955fb40b4d7ad7272fc67950aa0c06d6e",
        "clazz3.csv": "2f45c0af0d43932ea1b48e309c4d774db1a35fd12cb22bf5154db3f627bc4be8",
        "data.sql": "d1c7313e14a402fa124f1ad0fa495a4bc27f5e11f8c2bab66af2ecb0840ca79f",
        "model.xml": "da031641968fb984fe185211d4a890c834b48bd720a6caeb4d0a6683a14eb485",
        "report.txt": "7721dcf204619a874315f432a319d759e857855ed32eb03dc900620edd591a05",
    },
    (4, 300, 3): {
        "clazz0.csv": "aa2439e8a9bfc758ae717c0d0e30a6effa7a2063fb3006dc5ce7892a8e2c5794",
        "clazz1.csv": "e083bcac9f42e953c2f71014bf61a6003ed13a08842bb8d8a33d76b2d6297446",
        "clazz2.csv": "3011f496789b4480901203f6c34a3de54c43400a2529597897dcba7e5d9390c5",
        "clazz3.csv": "90cf4bfd8df2e744763755a420bfc1578f5d9d76c7303d27e9942a10a59c51ec",
        "data.sql": "54e79d79d7277f12ed65bbb16baedf88f412de12787e3fbcb58aa5044058ab80",
        "model.xml": "e203d7bf2ba851290a5f17a9171f69ca4d4e5cb112730bb081a824658f6be156",
        "report.txt": "1e133f1fc090b96072909dc55f9e415959a21b9cfc6b8f2442138678378a3a5a",
    },
    (9, 200, 0): {
        "clazz0.csv": "e17e8ec344f21e83b2c35c8a03b9fc86bfca0c17499f65d0b1b48d99e72cae40",
        "clazz1.csv": "48623f420058d430d9c4a114bcfbe892cb4742d0bfb0685cb960c21055fa6b7d",
        "clazz2.csv": "a795d1bde285bff63929bcfbf48d43d02849e61abbf993f8c954e033dd82534f",
        "clazz3.csv": "6615a161a1520db24a39aefb6f14e5dad35bc0882169b808c0e589f71e984488",
        "clazz4.csv": "f153f59987836e6236c0f9a455e1e899c9522b2624dd549fb7ec06828409fbcb",
        "clazz5.csv": "09f305658ef87d0c7e6064660e137bb982439f92d81d3e624d60e286e0f8fb65",
        "clazz6.csv": "ab08a7a9d94cd05f9bae01d1a64188e67a597c365536d8d2bb86a31da4e681f3",
        "clazz7.csv": "434082f120e5314180c3b30f29cd25b402020fdaa9e6f57c6cd100744fc177fe",
        "clazz8.csv": "9a512cadf90d5846868cbf2f193ea1cc3d0675c4d6cd84feb217c0e246acb290",
        "data.sql": "4032b0bd732059e7800c11fca8ded73f516947bf4503e808c2e81f2051226b8a",
        "model.xml": "6244c055ad7e653129ab5598e77575c8cfc03ec70ae517970016d067097e45e1",
        "report.txt": "29d79cdf1dee1dcfecefd4102bfa1d9370cc666c7a602693fbc33720e9216d00",
    },
}


@pytest.mark.parametrize("classes, objects, seed", sorted(GOLDEN))
def test_cli_outputs_match_golden_sha256(tmp_path, classes, objects, seed):
    args = ["--classes", str(classes), "--objects", str(objects), "--seed", str(seed)]
    assert run_cli(args + ["--out", str(tmp_path)]) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
    }
    assert digests == GOLDEN[classes, objects, seed]
