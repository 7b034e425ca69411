"""Face classifications pinned to those of the earlier Fraction-pair QNum.

The digests below were computed with the previous number core, which kept
each QNum as two Fractions.  The integer core must classify every face of
psi, psi_prime and kzh exactly as it did, in the same exact strings.
"""

import hashlib
import json

import pytest

from groupcut import catalog, pwl
from groupcut.additivity import additive_face_report
from groupcut.diagram import classification_digest

PINNED = {
    "psi_function": ("74b71c9739e2e95b", 289),
    "psi_prime_function": ("5c651bb33bcfcc32", 289),
    "kzh_function": ("976d429a26782cc2", 18155),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_classification_digest_matches_the_fraction_pair_core(name):
    fn = pwl.parse_text(pwl.to_text(getattr(catalog, name)()))
    digest = classification_digest(additive_face_report(fn))
    text = json.dumps(sorted(digest.items()))
    short = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert (short, len(digest)) == PINNED[name]
