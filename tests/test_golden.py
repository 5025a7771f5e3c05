"""The behaviour contract: byte-identical CLI output on fixed invocations.

Each golden entry is the sha256 of stdout and the exit code recorded
from the reference implementation; any change to the JSON a subcommand
prints, down to key order and whitespace, fails here, and so does any
change to the point listings that `curve --emit` writes.  The scripts and
the README examples are held to the same output.
"""

import hashlib
import importlib.util
import json
import re
import shlex
from pathlib import Path

import pytest

from maxcurves import audit, build_tower, cli, hermitian_curve, to_json

# every command stays in the tables of the tower it builds
pytestmark = pytest.mark.usefixtures("products_stay_in_k")

ROOT = Path(__file__).resolve().parent.parent

GOLDEN = [
    ("audit --p 2 --a 1 --hermitian-m 3", 0,
     "895547a5d030afedab202dbcdd69b7b027c668169492299d1ef78f16042abda9"),
    ("audit --p 3 --a 1 --hermitian-m 2", 0,
     "9650879178ff51bb265917a6f5b617565a6230b87863d4306fb8a060ac135962"),
    ("audit --p 3 --a 1 --hermitian-m 4", 0,
     "147ba5ddb1fb4c968407c7f48c5a81147f462125b06eb1dda103fd7fba663ac0"),
    ("audit --p 5 --a 1 --hermitian-m 2", 0,
     "bef0296bd4c27360f64391a245aeb1c3258460eaa615f14908aebdc6c03c2cfb"),
    ("audit --p 5 --a 1 --hermitian-m 3", 0,
     "55c4baa0f0babd4208842af2c2175e09ffeaa1b4c867a704fc6d9b174b28177f"),
    ("audit --p 2 --a 2 --additive 1,1 --d 5", 0,
     "d7dd31dfdfe63cd5bbc9a50cc731be7980a68a0c4e8bfde52d39a427b402c063"),
    ("audit --p 7 --a 1 --hermitian-m 4 --sample-seed 3", 0,
     "8d87bd3b5d5998f8e861e69a3c4e701596351f4a9bab7b56802ef6522e56e018"),
    ("audit --p 3 --a 2 --hermitian-m 5", 0,
     "92d8114cf27fc206606175488c0c44f1ea0522e20cf022442cc560fde2abbc23"),
    ("audit --p 5 --a 2 --hermitian-m 2", 0,
     "3bcbbd131dc3ba194f69715e49474cec9b9f223e42b9dafdd927fe40db22cee4"),
    ("audit --p 2 --a 3 --additive 1,0,1 --d 3", 1,
     "0989bbf6c73d0761a4eb5466124187b472aef9600d3d2a7230c1a214ebdca6bf"),
    # a twisted trace model: normalized with power_index 1 and y_scale != 1,
    # tagged "hermitian-type", so its ramification and embedding are computed
    ("audit --p 5 --a 1 --additive 1:0:1:2,0:0:1:2 --d 3", 0,
     "97a0106388b67efa0b5da2c3be6804952f0b0e107ddf8e86f702a054343d4a11"),
    ("curve --p 5 --a 1 --additive 1:0:1:2,0:0:1:2 --d 3", 0,
     "9cb60de458f1af03e22932c2c6a041af015f1abec7d9ddb865806d1712078b2c"),
    ("conjecture --p 2 --a 2 --m1 2", 0,
     "c7d6f439f33609666f649641b7874f3eec39f15506ffe420050161a15f75497b"),
    ("conjecture --p 2 --a 2 --m1 2 --scan-budget 32", 3,
     "288228ae7b891a030299f55d8cc880b9c52e549727808f042d7e4e18ebf32efb"),
    ("conjecture --p 2 --a 3 --m1 4 --d 3", 0,
     "220830917634c9731c62d4bef9168013f4f2a66f51c87c308067b39600603553"),
    ("conjecture --p 2 --a 3 --m1 4", 0,
     "2cb812ec65cb8fd04a973e0ed546b5163200a2801f85d87c2af7c1418df0b065"),
    ("conjecture --p 3 --a 2 --m1 9", 0,
     "de3bf1e7179e876e32422b4f8545f6be322bc9c77a07973fda3a170acd0b921d"),
    ("conjecture --p 3 --a 2 --m1 9 --scan-budget 6400", 3,
     "2e19f5060a2cdd147a8bc3e08f0300a1bc52173d3536979ec112abcdf9946711"),
    ("conjecture --p 2 --a 3 --m1 8 --scan-budget 25600", 3,
     "79b42d4f7d0da8dad0ab4aef9c71126497bf40a7e53f54eb8856353a45a398c6"),
    ("conjecture --p 2 --a 4 --m1 4", 0,
     "866a0784eb2491328517b9c278069d9b1afc2de26a567d31af73d6bbaa6c4dbd"),
    ("conjecture --p 2 --a 3 --m1 8", 0,
     "0dbf180c6b3762e0940c2455539f2e91b0fde5d3336428cf3a06a7da16f2198a"),
    # (q^2 - 1)/g + 1 = 17 is no power of 3: count(2) walks the image
    ("conjecture --p 3 --a 2 --m1 3 --d 5", 0,
     "39aa9890e51083a3bc6ae8cb93a30f1b6c4c34ac66545f9e68b868c232ef316b"),
    # full subfield scans past the default budget: L = F_32 with 5 hits,
    # and odd p with [k : L] = 2
    ("conjecture --p 2 --a 5 --m1 4 --scan-budget 1073741824", 0,
     "fe1c542d083a15aa8ed2faaae3e4c4d8d38a8807882b6cba3472820e52a112cd"),
    ("conjecture --p 3 --a 3 --m1 9 --scan-budget 1073741824", 0,
     "10aec899ccba1e458a78a93b2d60050377c3dfbbd8047dcf6754cc5ea7591d8f"),
    ("normalize --p 5 --a 1 --fa 2 --fb 3 --m 3", 0,
     "c911ad05a3e1017bd8e5fb23281ac33bb5453cdd6a3265d3e794d2b5ec630029"),
    ("code --p 2 --a 1 --hermitian-m 3 --lambda 3 --exact", 0,
     "b77668fca2efa944af77fd12084d22c84ff08c71768b0e59d614a5e923352ca1"),
    ("code --p 2 --a 2 --hermitian-m 5 --lambda 8 --exact", 0,
     "2c630a483a09923eacb4a470c18d79e64cc3cb44ad2ab46ac13f64f6f4561db6"),
    ("code --p 3 --a 1 --hermitian-m 4 --lambda 4 --exact", 0,
     "c29fa8a1fc446c6dbf4ace53ed1eea6085a8d26608bb21adb67a2eb3426f086e"),
    # odd p and a = 3: the packed scan's field widths 4, 4 and 2 bits
    ("code --p 5 --a 1 --hermitian-m 3 --lambda 3 --exact", 0,
     "c60bf43fdb7098ae90677e5eaf6d0afa000c4cb1d63a928b0cd4f535e0bf2568"),
    ("code --p 7 --a 1 --hermitian-m 4 --lambda 4 --exact", 0,
     "18dfc37e2fbf7a09d062e5343a61d653d638a56a30f5652eec3237794d10e3f1"),
    ("code --p 2 --a 3 --hermitian-m 3 --lambda 3 --exact", 0,
     "1e0880ce1916175cb7df88143e12bdb033c437338af8b128a22e45016204f43f"),
    # 16 276 words, d = 59 = designed: within the distance budget in words
    ("code --p 5 --a 1 --hermitian-m 3 --lambda 6 --exact", 0,
     "75da4240d8037d580cf8333489f6acbae754c4e4d91a798e5d1db02d23f4fc71"),
    # q = 32: k alone is tabulated, 2^10 units in place of 2^20
    ("code --p 2 --a 5 --hermitian-m 3 --lambda 2", 0,
     "b1a520817773ca9bae44178656093c445f4005b76639860ca24c789909ad59e0"),
    ("curve --p 3 --a 1 --hermitian-m 2", 0,
     "e76b74876fedcf3a11b3221d6d9074f262227a33740f2bfc4f3c9bf188e37d0c"),
    ("curve --p 3 --a 1 --additive 1,1 --d 7", 0,
     "3ceba793b3304be76b2a3fa3b4477d0bb124b86fbfd19143a7afc680bc3f7986"),
    ("curve --p 2 --a 4 --hermitian-m 17", 0,
     "9615531ed3aa51e453a7d4fe062d25312d14d9835e5cf1ad9c3bedda5715d9e8"),
    ("curve --p 3 --a 2 --hermitian-m 5", 0,
     "808da4c27bfa6ddfcd3f48af9e4123b436094cce42725b70dc9a428976e42b7c"),
    ("curve --p 2 --a 2 --additive 1,1 --d 5", 0,
     "be06e1feb38d98dd61cd163042ba78ea2b089da18d444c3a1548d2db62736419"),
    ("normalize --p 3 --a 2 --fa 2 --fb 1 --m 5", 0,
     "15f530a8693ceb6939a79d4f8097919f40d5739d0f5cacc0d9f24a9d0817a00c"),
    ("curve --p 5 --a 2 --hermitian-m 13", 0,
     "b9bd6d3dd95f9dc797c614b9378dda28d5a42e9224cdd48fe3d07ec38cf67a95"),
    ("curve --p 3 --a 3 --hermitian-m 4", 0,
     "0e346d86e847043e0307c2f48c5f10987db7165f1c97038a34807e2839721b23"),
    # level 4 on a k-only tower: odd p with the subfield branch L = k
    # (d = q^2 + 1, quartic 6400), and p = 2 with quartic 8193
    ("curve --p 3 --a 2 --additive 1,1 --d 82", 0,
     "6c6b4ba3aa7050030b1a3a7744a593c6da995a32bb51020259576fcd2edadbe8"),
    ("curve --p 2 --a 3 --additive 1,1 --d 65", 0,
     "cd4a580429380e71a3f6b55ae7e73b72589c46b46f6e028bd22bf6b8c92e7fd4"),
    # q = 49 past the default budget: the quartic count walks the cosets
    # of H = D & F_49* in F_(q^4)*, 60 050 orbit steps
    ("curve --p 7 --a 2 --hermitian-m 2 --budget 8388608", 0,
     "68d0da3e75bc34f0eea6dca54f0ba2819482b8fc77707ffa01e21f6353503b5e"),
]

# sha256 of the CSV that `curve ... --emit` writes: the point listings
EMIT_GOLDEN = [
    ("curve --p 3 --a 2 --additive 2,1,1 --d 5 --level 4",
     "1be519c901965d4ecb512f3793369ec0bfd700900945a37158983804f07de253"),
    ("curve --p 5 --a 1 --hermitian-m 3 --level 4",
     "ddb1ba24924bdcc751e470f08fa04ee4d9692975b1d9064962ada317b6394ef8"),
    ("curve --p 7 --a 1 --hermitian-m 4 --level 4",
     "f5b412e0d7a5790a4e154ce254a1f2b8d75a6be6bd6efc419c20a68f22e8d2e4"),
    ("curve --p 2 --a 2 --additive 1,1 --d 5 --level 4",
     "0921522a75b41faad2a2139044cd303c3e0e301976ca656dbac67f9a4f54d3db"),
    ("curve --p 2 --a 2 --additive 1,1 --d 5 --level 2",
     "4ddb286ba7cdb488e5e4f6db4f0aff8f91c01032bd98a83d040cda49fd23e3e3"),
]

# sha256 of json.dumps(build_tower(p, a).report()): the modulus and xi of
# every tower the suite builds, and of the three largest in the budget
TOWER_REPORTS = {
    (2, 1): "422cc930e37ad20862a006c22e7f00560600f9a2a9598f38466c75f8ab66725b",
    (3, 1): "9b428f3245160ef9942f3a1901d2dd1da5931ba53b0b4a4564972167beb2d7d1",
    (2, 2): "c2eb7e59b6b605343390ecc5f5bccd240535aa2739bd239e1f6e8a11e0381c98",
    (5, 1): "54034b70d027e0ddb1e70356e8fdb34960b184d11e0ca73060e6d0e674e608fb",
    (7, 1): "c87247081d62a9685415c56c122734dd72a6de5a34e8f08adb5b39120845d831",
    (3, 2): "3fb0a68a280ee7c9efba830d45706ff979567183a29676c0e9ddf788e84a0919",
    (2, 4): "7641c2c6c9dda23c776226ffa524c0b3434b872fe5a70660fc21eb4b1ca8d11a",
    (2, 3): "94bf8405fce326b0d9800bd7c2daa1c92485d33372235539466209f6181df77f",
    (11, 1): "6259606276bf9da5161229acba8ace6947091d1ff74abebb0b526d11ebc3d553",
    (5, 2): "ca63ae3860397fbc7c735b87562a7bdd3ecf77ea439ac857d804b5d8eac36e53",
    (3, 3): "abc07f41968bddecd136136881bd1e3e6dc80f04a2c676a5fd1da15798c1f6de",
    (2, 5): "7a5b4bea8dc75b17d83d11ad293ca97f8bc2fd8438c4053048b3d200e93dfbf1",
}


# sha256 of json.dumps([to_json(audit(curve), tower), ...]) over the sweep:
# every y^q + y = x^m with p^(4a) <= 2^20 and 2 <= m | q + 1, (p, a, m) in
# increasing order, one tower per (p, a)
SWEEP_AUDITS = "43989dc84ddee312967202b18636beb69712a00d491bef961451cc2fe55ae2a7"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("argv,exit_code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_output_is_byte_identical(capsys, argv, exit_code, digest):
    rc = cli.main(argv.split())
    out = capsys.readouterr().out
    assert rc == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,digest", EMIT_GOLDEN, ids=[g[0] for g in EMIT_GOLDEN])
def test_emitted_points_are_byte_identical(capsys, tmp_path, argv, digest):
    path = tmp_path / "pts.csv"
    assert cli.main([*argv.split(), "--emit", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("p,a", list(TOWER_REPORTS), ids=str)
def test_tower_report_is_unchanged(p, a):
    report = json.dumps(build_tower(p, a).report())
    assert hashlib.sha256(report.encode()).hexdigest() == TOWER_REPORTS[p, a]


def test_sweep_audits_are_unchanged_and_clean():
    reports, clean = [], 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for a in range(1, 6):
            if p ** (4 * a) > 2 ** 20:
                break
            tower = build_tower(p, a)
            for m in range(2, tower.q + 2):
                if (tower.q + 1) % m == 0:
                    rep = audit(hermitian_curve(tower, m))
                    clean += rep.all_identities
                    reports.append(to_json(rep, tower))
    assert (len(reports), clean) == (64, 64)
    assert hashlib.sha256(json.dumps(reports).encode()).hexdigest() == SWEEP_AUDITS


def test_run_audits_script_is_clean(capsys):
    assert load_script("run_audits").main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert lines[-1] == "7/7 instances clean"


def readme_commands():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## Command line\n+```\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("maxcurves ")]


def test_readme_commands_succeed(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 6
    for argv in commands:
        assert cli.main(argv) == 0, argv
        json.loads(capsys.readouterr().out)


def workflow_commands():
    text = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    step = re.search(r"- name: Installed console script\n(.*?)\n\s*- name:", text, re.S).group(1)
    commands = []
    for line in step.splitlines():
        words = shlex.split(line)
        if words[:1] == ["maxcurves"]:
            commands.append(words[1:words.index(">")] if ">" in words else words[1:])
    return commands


def test_workflow_console_commands_succeed(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = workflow_commands()
    assert len(commands) == 11
    for argv in commands:
        assert cli.main(argv) == 0, argv
        json.loads(capsys.readouterr().out)
