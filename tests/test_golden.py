"""Golden digests of every bundled fixture's dry-run output.

The determinism gate in test_acceptance compares two runs of the same code.
This table pins the output across code changes: for each fixture, dry-run
with its mock script into a fresh run directory and compare the sha256 of
events.jsonl, report.json, report.txt and of the remaining artifact tree
(sorted relative paths, directories included, plus file bytes).
GOLDEN_RATE_LIMITED pins the rate-limited path the same way: the fan-out
fixture under a 10 connects/1 s limiter, where many nodes are due at the
same instant.

A change that alters run output on purpose regenerates the table with

    PYTHONPATH=src python -m tests.test_golden
"""
from __future__ import annotations

import gc
import hashlib
import json
from pathlib import Path

import pytest

from gplmt.scheduler import dry_run
from gplmt.transport import RateLimiterConfig

from .differential import REPORT_FILES, tree_digest
from .test_acceptance import FIXTURE_SCRIPTS, load_fixture, script_for

GOLDEN = {
    "abort_step.xml": {
        "events.jsonl": "2017703f30e569037c6b366dd8fb325bda91b70cc6bb8daf894ab7b71dc0b645",
        "report.json": "fa5044a71d5467a790f6598a80c53b1d71376019bb186c1bf824b970c2d29089",
        "report.txt": "2e7664d44df8f64ceea6d1c6cd89c5fd1fc41ed5a83647cb6b4fd02002885cd6",
        "tree": "4661e5baee1ec7b018ec962c8efe66b780b665788f1eee60835f71d73df84f76",
    },
    "connection_loss.xml": {
        "events.jsonl": "6eeb39839da48f7b9dab267c897e285915993cadcb214582e5fb76dde43aa6f1",
        "report.json": "65536bfa22028d598028eaaf23e84bf1e8cd5e85bf42d4a2c0bf3032a170523c",
        "report.txt": "ef2791020b29868f5aae838fe22aba9879cf3f5b8b4f99080fa07b80e2a6ef13",
        "tree": "30d2df97bf7c4676e0e9e96e867833378484df9124cfdccf9dbfeeb9da48e9ad",
    },
    "fanout_rate_limit.xml": {
        "events.jsonl": "013b5734d956053cb8322ca58d57edf24206f8925f51d5e88b60b381f214462e",
        "report.json": "c274280cd6630dd407f2aba8222e809b8156e0200edc1d1cafe9aab7e0a3940a",
        "report.txt": "c264e9b5350dbfe78c4a2927f39a4c3758620584dcd987bd3af5a6a654b034f9",
        "tree": "2ac4f047c309892f6f1e153f438262a89681ea4966b762b53620275ac417dfcd",
    },
    "listing1.xml": {
        "events.jsonl": "408add9f145844c36028e0e34f1e0dea03a3736e091dd56e5541b31a54da5cda",
        "report.json": "e26ad8c991d07a2284fde1f1f78c2c7c6746d981cd6cf1a6ea054e4e2b0e9e7a",
        "report.txt": "0051795b0b874a51b6ac66d022a7ac9050da816a686990955753ef1771b82741",
        "tree": "f17b0a8e7730310db9ee7181984a5d95d8b0483518a992f5b38dd29c59449e6c",
    },
    "nested_groups.xml": {
        "events.jsonl": "7b793b0e2e0061bdf1fdf3a14d7842a090276f6151e7a056740f9dcc15a9bd55",
        "report.json": "b55269be800f4f55b356a5ce921e8cddc65fe5b93e4229f197bd74b168a0a2b6",
        "report.txt": "79217f1329d90c7e20b0dbcb8fd212bc2d5a66e1a2b99fbbe72a78144a0da36b",
        "tree": "ac1f785d2a7339d7f562699dd3c3ca8ecc1014500ed2aa80be427ca5257378b5",
    },
    "panic_teardown.xml": {
        "events.jsonl": "0226445f69f2e98e765750e95151c200b777d04ca4d5003c27813b4a6cd947d3",
        "report.json": "44199acf1444e10fbf8ad06d9aac85b7c0f3c5daab2fd7168ce37986d25b6d18",
        "report.txt": "2a49e6dcdf3bdf627d5a11832914856965f4984a9b1f68f09f85e6edf6f56803",
        "tree": "109139a8cf9d7c6214be5f8801a9a9c4f82dfc426f84f9706a4a79b121e978f8",
    },
    "par_seq_timing.xml": {
        "events.jsonl": "53852cd12d166e1a1b791ee11d615d5f86e0fef16913f302c974d7787f86a05e",
        "report.json": "1b6652f9485a0d1e539b6dc0a5c6ec7dafd6b3ce425bf0ac037d723abc4e0960",
        "report.txt": "06ebe7aa8fce5229a15ffbdf0d5ae5d5389d2af163af42b73fcf571fc8b756ab",
        "tree": "0179b253ccc400d63251eb50c8928b5c874e4560182a97eeb790f9645a8215ef",
    },
    "repeat_combined.xml": {
        "events.jsonl": "55c05e5ad5307b17d3f9de11f73fe6dbbdaec4ddc48086bd86de9328f2c37314",
        "report.json": "41ff9357c64cd474200569227ee9fdb8d44ff40bfb118e31597d9c924f311186",
        "report.txt": "3f53b1ecf95dbcc6bfc3a840fa35bd670748a8a754673545dbf2b177f4258520",
        "tree": "66bbe21f105b0c496668fca11082eadca630ede16f56ed93f4738a31eab36553",
    },
    "repeat_during.xml": {
        "events.jsonl": "c74db6a6812257eec5a424aacbb7c6bb28eb4a50435662165ee085f852bc9004",
        "report.json": "19775496492bb4b7c8846cffa5a177d63af7de8afc1930c66b2c99a4a7ae8fec",
        "report.txt": "8a71cb9508599005d6f68ef01e35e79a85d50a3950bd572a7a29d17ffaf338f7",
        "tree": "4fb10f6816df0a584e0111941dbeb5ed15f64ba063f493bce8447370dcc87bad",
    },
    "repeat_iterations.xml": {
        "events.jsonl": "f751f08302ee65b08afa7e5f84b55874c298f94c0c6a8da88b587bbb85466bfa",
        "report.json": "fe244af3e331392f3d87fa4d987a44ec493a25e7b2d0c492cd1ffec65ac41607",
        "report.txt": "450fb338aa6477bf6759f369d17fdb280b7f558bd96246ef61e828c1460f9128",
        "tree": "d9f2e2d4ad47138781651785dabea0fef44094ba898693873a38a782d123e73d",
    },
    "scheduled_start.xml": {
        "events.jsonl": "fe6b11ffd2a41f2595694d4225e314fa070e32850303945c82a91a23f74abb49",
        "report.json": "3b49de783ded202d91a3a93e0aa3389b1df9d83fcc644ba8ddceae3dc3412020",
        "report.txt": "a227ae1cb96bbb0ab68a744aa68f86c1287a04b00c04ac9235311df226628828",
        "tree": "3fd38d8085334685135fd9f51873613a150003a9ef85c5ecf44c4531523d9697",
    },
    "step_stop.xml": {
        "events.jsonl": "f0e966eb52a2ff706c7b9eb7d62b3520e668b76a4461c3ccceaa6436cff5cf7c",
        "report.json": "43d090a9993b28629dc10e79eaf48ae486ca2b0abeca241a758249b92f0df63f",
        "report.txt": "ef2791020b29868f5aae838fe22aba9879cf3f5b8b4f99080fa07b80e2a6ef13",
        "tree": "30d2df97bf7c4676e0e9e96e867833378484df9124cfdccf9dbfeeb9da48e9ad",
    },
    "timeout_cleanup.xml": {
        "events.jsonl": "0b9219856c939c0a0ff9d4b53f471fb2864631ce6b74a2523d2f6e9a794c4ad0",
        "report.json": "3f06622cd9fab787a69eb6d886caa2927495efcd57964e5cd1ab75b3cacb4fba",
        "report.txt": "dedb8f94b559383636d8f685e8a27bc1a6eec84521c01398ffb9bd5feaad7aef",
        "tree": "30d2df97bf7c4676e0e9e96e867833378484df9124cfdccf9dbfeeb9da48e9ad",
    },
}

RATE_LIMIT = RateLimiterConfig(10, 1.0)

GOLDEN_RATE_LIMITED = {
    "fanout_rate_limit.xml": {
        "events.jsonl": "781bb60180576aff2eed2fc22a61d5ce9bfe0ccef68cc40d133466664d84561c",
        "report.json": "3945b7ce21eff2a557c32309ff4627bd378bc37558cfef22fb0deee24c823cb9",
        "report.txt": "6b6b32fbcbd4abb8763f3e075a09913bea2a8fa68d4274e73748a2320a15948e",
        "tree": "2ac4f047c309892f6f1e153f438262a89681ea4966b762b53620275ac417dfcd",
    },
}


def fixture_digests(
    name: str, run_dir: Path, limiter_config: RateLimiterConfig | None = None
) -> dict[str, str]:
    dry_run(load_fixture(name), script_for(name), limiter_config=limiter_config, run_dir=run_dir)
    digests = {
        filename: hashlib.sha256((run_dir / filename).read_bytes()).hexdigest()
        for filename in REPORT_FILES
    }
    digests["tree"] = tree_digest(run_dir)
    return digests


@pytest.mark.parametrize("name", sorted(FIXTURE_SCRIPTS))
def test_fixture_output_matches_golden_digests(name, tmp_path):
    assert fixture_digests(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_RATE_LIMITED))
def test_rate_limited_output_matches_golden_digests(name, tmp_path):
    assert fixture_digests(name, tmp_path, RATE_LIMIT) == GOLDEN_RATE_LIMITED[name]


@pytest.mark.parametrize("collector", ["disabled", "after-every-allocation"])
def test_digests_do_not_depend_on_collector_timing(collector, tmp_path):
    # A collection can run finalizers and free loop handles; the log must
    # not depend on whether, or between which handles, that happens.
    threshold = gc.get_threshold()
    try:
        if collector == "disabled":
            gc.disable()
        else:
            gc.collect()
            gc.freeze()  # keeps a collection per allocation cheap
            gc.set_threshold(1, 1, 1)
        for name in sorted(GOLDEN):
            assert fixture_digests(name, tmp_path / name) == GOLDEN[name], name
        for name in sorted(GOLDEN_RATE_LIMITED):
            digests = fixture_digests(name, tmp_path / f"limited-{name}", RATE_LIMIT)
            assert digests == GOLDEN_RATE_LIMITED[name], name
    finally:
        gc.set_threshold(*threshold)
        gc.unfreeze()
        gc.enable()


if __name__ == "__main__":
    import tempfile

    def table(names, limiter_config=None):
        digests = {}
        for fixture in sorted(names):
            with tempfile.TemporaryDirectory() as scratch:
                digests[fixture] = fixture_digests(fixture, Path(scratch), limiter_config)
        return digests

    print("GOLDEN =", json.dumps(table(FIXTURE_SCRIPTS), indent=4))
    print("GOLDEN_RATE_LIMITED =", json.dumps(table(GOLDEN_RATE_LIMITED, RATE_LIMIT), indent=4))
