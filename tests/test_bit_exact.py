"""One digest over the keys and outputs of every scheme across a parameter sweep.

The digest covers, per configuration, every party's serialized key, its
re-serialization after a decode and the decoded key's full-domain
evaluation, plus three point evaluations of party 0's decoded key.  Keys
of every scheme are evaluated by `dpf.eval_all` and `dpf.eval_point`;
`dpfkit eval` calls the second, and `dpfkit eval-all` streams the rows
the first joins, so the digest pins what both commands compute.  A
refactor that changes any output bit of any scheme changes the digest.
The sha256 of each configuration's own bytes is pinned too, in
`tests/data/bit_exact.json`, so a failure names every configuration whose
bytes changed.

Skipped configurations: ours and dcf when m >= p/2 (generation refuses
them), boyle15 over composite moduli (refused), and, to keep the suite
near five seconds, boyle15 wherever q^(p-1) exceeds 1024 columns or the
PRG is the test generator (which the other schemes cover).
"""

import hashlib
import itertools

from dpfkit import baselines, dcf, dpf, sizing
from dpfkit.algebra import parse_modulus
from dpfkit.dpf import PointDescription, SchemeParams
from dpfkit.keyfile import key_from_bytes, key_to_bytes
from dpfkit.prg import PRG_SHAKE128, PRG_TEST_LCG, DeterministicRandomSource

GENERATORS = {
    "ours": dpf.gen,
    "dcf": dcf.dcf_gen,
    "trivial": baselines.trivial_gen,
    "boyle15": baselines.boyle_gen,
}
PARTY_BOUNDS = ((3, 1), (5, 2), (7, 3), (3, 2), (4, 1))
MODULI = ("2", "3", "5", "7", "257", "2*3*5*7", "2147483647")
DOMAINS = (1, 7, 40, 300)
PRG_TAGS = (PRG_SHAKE128, PRG_TEST_LCG)
BOYLE_COLUMN_CAP = 1024

EXPECTED_DIGEST = "177e56847b4470081af800c8b945367cab038468d3f5750134f1bc01903b3ca9"
EXPECTED_CONFIGS = 796


def _configs():
    for scheme, (p, m), text, n, tag in itertools.product(
        GENERATORS, PARTY_BOUNDS, MODULI, DOMAINS, PRG_TAGS
    ):
        modulus = parse_modulus(text)
        if scheme in ("ours", "dcf") and 2 * m >= p:
            continue
        if scheme == "boyle15" and (
            len(modulus.factors) != 1
            or modulus.value ** (p - 1) > BOYLE_COLUMN_CAP
            or tag != PRG_SHAKE128
        ):
            continue
        yield scheme, p, m, modulus, n, tag


def _label(scheme, p, m, modulus, n, tag) -> str:
    return f"{scheme} p={p} m={m} q={modulus.value} N={n} prg={tag}"


def _config_bytes(scheme, p, m, modulus, n, tag):
    """Each byte string the configuration feeds the digest, its label first."""
    grid = "auto"
    if scheme == "boyle15":
        grid = sizing.choose_grid_boyle(n, p, 128, modulus)
    params = SchemeParams.create(p, m, modulus, n, grid=grid, prg_algorithm=tag)
    label = _label(scheme, p, m, modulus, n, tag)
    yield label.encode()
    rng = DeterministicRandomSource(label)
    point = PointDescription((5 * n) // 7, modulus.element(modulus.value - 1))
    for key in GENERATORS[scheme](point, params, rng):
        blob = key_to_bytes(key)
        back = key_from_bytes(blob)
        yield blob
        yield key_to_bytes(back)
        yield dpf.eval_all(back).data.tobytes()
        if back.party == 0:
            for x in (0, point.alpha, n - 1):
                share = dpf.eval_point(back, x)
                yield repr(share.residues).encode()


def test_every_scheme_is_bit_exact(check_digests):
    digest, found = hashlib.sha256(), {}
    count = 0
    for config in _configs():
        own = hashlib.sha256()
        for chunk in _config_bytes(*config):
            digest.update(chunk)
            own.update(chunk)
        found[_label(*config)] = own.hexdigest()
        count += 1
    check_digests("bit_exact", found)
    assert (count, digest.hexdigest()) == (EXPECTED_CONFIGS, EXPECTED_DIGEST)
