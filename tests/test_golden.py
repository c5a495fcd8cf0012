"""The sha256 and size of seven CLI outputs, pinned byte for byte.

A change that alters a certificate, a report or a lift record must update
these pins on purpose.
"""
import hashlib
import json

from glicci_cert1 import cert1_document
from liaison.cli import main
from liaison.lifting import canonical_json, default_matrix_for
from liaison.linkage import glicci_certificate_artinian
from liaison.monomials import MonomialIdeal

PINNED = {
    "glicci --json, worked ideal, artinian, seed 7": (
        "38578c230843ac5337560758180de02f82c39765dbc6f2f4af61a16168cf82f1", 1653),
    "verify --json, worked artinian certificate": (
        "3df47bae10bdd5ea9cf907846180e9e293ce0e08c80bf917964dc58faeada4b8", 4246),
    "glicci --json, square Borel ideal, borel": (
        "6756702d00603c966a7d081fdff0ab01928f45b426d380739136421f19e06bc0", 440),
    "verify --json, square Borel certificate": (
        "73dc4e0f1dc2148970baafbb422e61b65893c0ee4dc912b6d9873cd544e8646c", 2593),
    "lift --seed 7 file, worked ideal": (
        "3faf9c3dcd0736c0996f80a7ac17ac6467f92e74effa02770b95448418564876", 6702),
    "verify-lift --json, worked lift file": (
        "a1d8eabcbb6464906f07faa32fe5451f4e965583ead650c9363e463910725d16", 429),
    "worked-example --json": (
        "8fd9b5c201cd7c0d95d76e589f985d386643f1ca05d1c8521e89405ece73de31", 645),
}

# The seed-7 Artinian certificate of (x1, x2, x3)^8, as canonical JSON
# text: 45 lifted generators, where a chain step shares the most products.
# POWER_8_CERTIFICATE is its glicci-cert/1 text, which stored each step in
# full, as the builder wrote it before glicci-cert/2.
POWER_8_CERTIFICATE = (
    "6c6fd742793b9c62057ca628a7969ea209c584505f7d58b342e9ff2754ef71f8", 181685)
POWER_8_CERTIFICATE_2 = (
    "f90f89c8b04d277066a032c1e806a8e7cf45856cf41458ef4cc58091f083606b", 1163)

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
    power, cert, legacy = (tmp_path / f for f in ("m8.json", "cert.json", "cert1.json"))
    gens = [[a, b, 8 - a - b] for a in range(9) for b in range(9 - a)]
    power.write_text(json.dumps({"schema": "ideal/1", "n": 3, "gens": gens}))
    assert main(["glicci", str(power), "--mode", "artinian", "--seed", "7",
                 "--out", str(cert)]) == 0
    capsys.readouterr()
    text = canonical_json(json.loads(cert.read_text())).encode()
    assert _digest(text) == POWER_8_CERTIFICATE_2
    # The test helper writes the glicci-cert/1 text byte for byte, and
    # `verify` still reads it, through the replay of glicci-cert/2.
    J = MonomialIdeal.from_json(json.loads(power.read_text()))
    built = glicci_certificate_artinian(J, default_matrix_for(J, "t-lift", 7))
    text = canonical_json(cert1_document(built)).encode()
    assert _digest(text) == POWER_8_CERTIFICATE
    legacy.write_bytes(text)
    assert main(["verify", str(legacy)]) == 0
    assert capsys.readouterr().out.endswith("certificate VERIFIED\n")
