"""Byte-identical CLI outputs.

Each case pins the sha256 of the stdout of one deterministic command: the
closure bases, the odd-odd structure constants, the multiplication tables
and the model reports.  The verify report of a passing run does not depend
on the seed, so the random streams of the checks are pinned by the report
of a known-bad kernel, whose counterexamples are drawn from those streams.
A refactor must leave them unchanged; a change that is meant to alter one
of them updates its digest here and says why.
"""

import hashlib

import pytest

from supergrass.cli import main

GOLDEN = [
    (["closure", "--k", "1", "--basis"], "2f7d4648bd74faab4f03c10d49e23d9e64daf3024a304dbc74db73b1ed8c2411"),
    (["closure", "--k", "2", "--basis"], "3c2d1a3b11105d19403c3d4a1061866fac743e94e6653c59161e7a2a5963e0ec"),
    (["closure", "--k", "4", "--basis"], "e0168320b292ccdec89b70cb892ebe1f612a038f7e15ee46fd50776b61c9b812"),
    (["closure", "--k", "8", "--basis"], "43ea1895089a038b55ed271bbe70653bec3176ad13b0ed60fbc874891a374585"),
    (["brackets", "--k", "1"], "a8346d5f964bd75d7d6b9c3867e62efde757cc4474acd1aaeae49773cca4d834"),
    (["brackets", "--k", "2"], "88b5bd6ee8504ab76afc8a01bbd99aee88885a2c87c0755a0d63117c54642982"),
    (["brackets", "--k", "4"], "39c22e1f98a3bbab1d9212ed61c63d36b514da52d7f14e0b2361ddbed8d374ca"),
    (["brackets", "--k", "8"], "5963cbfb1e49d365716ddfef08a79762f267720609766bfd16a92e27ee82072e"),
    (["table", "--alg", "R", "--json"], "7a7e0759c797ae95ea870c91d37e861c23db249c1e7f71e0423932ce99637d0f"),
    (["table", "--alg", "C", "--json"], "88139e86330917a1963724855ce4519121f700f6f617e13751064eb096083765"),
    (["table", "--alg", "H", "--json"], "8ed9eb1d37ca2141ae152d3107076f4e28f5055271e12f07ed673f53171d430d"),
    (["table", "--alg", "O", "--json"], "5e44ef155ba348b2611473df4f13b1b3304c14742a86b7f56b9d101741169077"),
    (["model", "superparticle", "--json"], "a1c4870f6a19f5c400f58b19e8bf8d6af47496fb9fd42f6ef1b0636b85210194"),
    (["model", "sigma32", "--json"], "2e89e7050fd5caf1240619a3793dd00b2a8f6bc0a4c236f08af468573b08aa0f"),
    (["model", "sigma32", "--h", "u^3 - 2*u", "--json"],
     "f43d4bcc74dac7cd9febd2112934ce9161ed40df257c55505388ca1961de5393"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_output_is_byte_identical(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_koszul_mutated_verify_report_is_byte_identical(capsys, koszul_sign_dropped):
    assert main(["verify", "all", "--seed", "0", "--cases", "100", "--json"]) == 1
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "304d9010b001206ef5180381a487c3fda40dbe15366c499cae88ce703e227427"
