"""Golden fingerprints of the serve, fleet and resilience labs.

Each lab reduces its whole two-arm campaign to one deterministic
fingerprint string. These pins hold the sha256 of that string at seeds 7
and 42, at the sizes the CLI's ``--quick`` flag uses (serve-lab: 250
tenants, 1000 requests; fleet-lab: 600 requests; resilience: 600 ops).
A speed-up or refactor of any lab layer must leave every pin unchanged; a
change that moves a lab's behaviour on purpose updates the pin and says
why.
"""

import hashlib

import pytest

from repro.fleet import run_fleet
from repro.resilience import run_resilience
from repro.serve import run_serve_lab

GOLDEN = {
    ("serve", 7): "bd562272a9d1f4b6dc545762db04503dad3df9fdaf682ec9f5e865bb0376a43b",
    ("serve", 42): "f92e2c6b9c51a14a11b3fe03013f5558c3208fdab65b7815daff3525bd63a24a",
    ("fleet", 7): "6397af71320154659d30e6eaab645e715b8063a2fe6715e1e9dd36e08c9a06f6",
    ("fleet", 42): "2b51092303b2ad709a7a11b912ee7977f40ddd4d201abb199062d8f4bc0f326c",
    ("resilience", 7): "e22079d55f2cd6c03bf878008dcc9205745811f10e689ad7951c8f266592c543",
    ("resilience", 42): "fb3a67e8fe0c0bc92c4c1b85a96021c01417a203eb46a06d5b6d4e72b6768b7a",
}

LABS = {
    "serve": lambda seed: run_serve_lab(seed=seed, tenants=250, requests=1000),
    "fleet": lambda seed: run_fleet(seed, 600),
    "resilience": lambda seed: run_resilience(seed=seed, ops=600),
}


@pytest.mark.parametrize("lab,seed", sorted(GOLDEN))
def test_lab_fingerprint_is_pinned(lab, seed):
    fingerprint = LABS[lab](seed).fingerprint()
    digest = hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()
    assert digest == GOLDEN[(lab, seed)]
