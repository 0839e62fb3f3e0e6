"""Golden answers: greedy and the solver over fixed inputs.

Each case concretizes a fixed list of texts cold through the real
pipeline (``Session.concretize`` with the caches off) and folds every
``(text, dag_hash or error class)`` pair into one sha256.  The
constants were recorded before the fixed-point fast paths landed
(skipping no-op constrains, intersections and invalidations, and
choosing each compiler version once per concretization); a speed-up
that changes any answer changes a digest.
"""

import hashlib

import pytest

from repro.compilers.registry import Compiler, CompilerRegistry
from repro.config.config import Config
from repro.errors import ReproError
from repro.session import Session
from repro.testing.generators import GEN_COMPILERS, RepoGenerator, SpecGenerator

#: the generated universe and request stream
UNIVERSE_SEED = 12
STREAM_SEED = 801
STREAM_TEXTS = 300

GOLDEN = {
    ("generated", "greedy"):
        "1a96f4dad40ba7893901ae7a17149fd1f172bda723ea22e4fe2e1f4499391b56",
    ("generated", "solver"):
        "ffd26cd4e30eb9d500f2d9b2b52e38ab2f949cdf961acb16368d5d4e9b9a9ab3",
    ("fig8", "greedy"):
        "beb0437c4ca8397ed56656c1ed0f7cdb46d382b77d36c353a25ed5d270b643ca",
    ("fig8", "solver"):
        "98060d332be36ce19111345c0b3c60040dd024a7daf010593fe087a35084f3a2",
}


def _outcomes_digest(session, texts, variant):
    digest = hashlib.sha256()
    for text in texts:
        try:
            concrete = session.concretize(text, concretizer=variant, use_cache=False)
            outcome = concrete.dag_hash()
        except ReproError as error:
            outcome = type(error).__name__
        digest.update(("%s\t%s\n" % (text, outcome)).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """A generated universe with every conflict knob on, and its stream
    of requests; the solver gets the texts without a ``^`` pin (an
    unreachable pin spends the solver's whole budget)."""
    repo = RepoGenerator(
        UNIVERSE_SEED, count=1000, virtuals=6, name_prefix="gold",
        hub_bias=0.6, max_deps=4, conflict_density=0.5, when_depth=2,
        provider_overlap=0.3,
    ).build()
    config = Config()
    config.update("defaults", {"preferences": {
        "compiler_order": [GEN_COMPILERS[0]],
        "architecture": "linux-x86_64",
    }})
    session = Session(
        str(tmp_path_factory.mktemp("golden-generated")), repo, config=config,
        compilers=CompilerRegistry(
            Compiler(*text.split("@")) for text in GEN_COMPILERS
        ),
    )
    texts = SpecGenerator(STREAM_SEED, repo).specs(STREAM_TEXTS)
    return session, {
        "greedy": texts,
        "solver": [text for text in texts if "^" not in text],
    }


@pytest.fixture(scope="module")
def fig8(tmp_path_factory):
    """The 245-package Figure 8 corpus, every package by name."""
    from repro.packages.synthetic import full_universe

    session = Session.create(
        str(tmp_path_factory.mktemp("golden-fig8")), packages=None
    )
    session.repo.repos = full_universe(total=245).repos
    names = session.repo.all_package_names()
    return session, {"greedy": names, "solver": names}


@pytest.mark.parametrize("variant", ["greedy", "solver"])
@pytest.mark.parametrize("corpus", ["generated", "fig8"])
def test_answers_match_the_recorded_digest(corpus, variant, request):
    session, texts = request.getfixturevalue(corpus)
    assert _outcomes_digest(session, texts[variant], variant) == GOLDEN[
        (corpus, variant)
    ]
