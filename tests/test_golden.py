"""The sha256 and size of seven CLI outputs, pinned byte for byte.

A change that alters a certificate, a report or a lift record must update
these pins on purpose.
"""
import hashlib
import json

from liaison.cli import main
from liaison.lifting import canonical_json

PINNED = {
    "glicci --json, worked ideal, artinian, seed 7": (
        "1f2615485efd867f2dece9f400362023e5d449493856574f457ffb7ea47165ff", 73529),
    "verify --json, worked artinian certificate": (
        "3a780098eca04fd73058e8c9402dbd59bca8a6bc487cf6baefc10ed086737410", 4810),
    "glicci --json, square Borel ideal, borel": (
        "4b4df06250460befff0fb34a5d36e9fa4cbff0d1390066e286226983b9874b38", 5624),
    "verify --json, square Borel certificate": (
        "bc1f94b59a4310f03433e901ae4c599f89489ea1a51efb9207222d4957dd03d7", 3430),
    "lift --seed 7 file, worked ideal": (
        "3faf9c3dcd0736c0996f80a7ac17ac6467f92e74effa02770b95448418564876", 6702),
    "verify-lift --json, worked lift file": (
        "a1d8eabcbb6464906f07faa32fe5451f4e965583ead650c9363e463910725d16", 429),
    "worked-example --json": (
        "8fd9b5c201cd7c0d95d76e589f985d386643f1ca05d1c8521e89405ece73de31", 645),
}

# The seed-7 Artinian certificate of (x1, x2, x3)^8, as canonical JSON
# text: 45 lifted generators, where a chain step shares the most products.
POWER_8_CERTIFICATE = (
    "6c6fd742793b9c62057ca628a7969ea209c584505f7d58b342e9ff2754ef71f8", 181685)

SQUARE = {"schema": "ideal/1", "n": 3,
          "gens": [[2, 0, 0], [1, 1, 0], [1, 0, 1],
                   [0, 2, 0], [0, 1, 1], [0, 0, 2]]}


def _digest(data: bytes) -> tuple:
    return hashlib.sha256(data).hexdigest(), len(data)


def test_cli_outputs_are_byte_identical(tmp_path, capsys):
    def stdout(*argv):
        assert main([str(a) for a in argv]) == 0
        return capsys.readouterr().out.encode()

    worked, square = tmp_path / "J.json", tmp_path / "sq.json"
    stdout("lex-build", "--h", "1,3,6,10,4,2", "--n", "3", "--out", worked)
    square.write_text(json.dumps(SQUARE))
    cert_a, cert_b, lifted = (tmp_path / f for f in ("a.json", "b.json", "L.json"))
    outputs = [
        stdout("glicci", worked, "--mode", "artinian", "--seed", "7",
               "--json", "--out", cert_a),
        stdout("verify", cert_a, "--json"),
        stdout("glicci", square, "--mode", "borel", "--json", "--out", cert_b),
        stdout("verify", cert_b, "--json"),
    ]
    stdout("lift", worked, "--seed", "7", "--out", lifted)
    outputs += [
        lifted.read_bytes(),
        stdout("verify-lift", lifted, "--json"),
        stdout("worked-example", "--json"),
    ]
    got = dict(zip(PINNED, map(_digest, outputs)))
    assert got == PINNED


def test_power_of_the_maximal_ideal_certificate_is_byte_identical(tmp_path, capsys):
    power, cert = tmp_path / "m8.json", tmp_path / "cert.json"
    power.write_text(json.dumps({"schema": "ideal/1", "n": 3, "gens": [
        [a, b, 8 - a - b] for a in range(9) for b in range(9 - a)]}))
    assert main(["glicci", str(power), "--mode", "artinian", "--seed", "7",
                 "--out", str(cert)]) == 0
    capsys.readouterr()
    text = canonical_json(json.loads(cert.read_text())).encode()
    assert _digest(text) == POWER_8_CERTIFICATE
