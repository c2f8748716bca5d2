import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geolearn.rng import entropy_words, seed_stream


@pytest.mark.parametrize("entropy", [0, 1, 2 ** 32, 2 ** 224 - 1,
                                     2 ** 256 - 1])
def test_entropy_words_seed_what_the_integer_seeds(entropy):
    words = entropy_words(entropy.to_bytes(32, "little"))
    assert words.dtype == np.uint32
    assert (np.random.SeedSequence(words).generate_state(8) ==
            np.random.SeedSequence(entropy).generate_state(8)).all()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 63),
       labels=st.lists(st.text(max_size=8) | st.integers(-5, 10 ** 6),
                       max_size=4))
def test_seed_stream_is_the_digest_integer_stream(seed, labels):
    path = "/".join(str(part) for part in labels)
    digest = hashlib.sha256(f"{seed}|{path}".encode("utf-8")).digest()
    by_int = np.random.Generator(
        np.random.PCG64(int.from_bytes(digest, "little")))
    stream = seed_stream(seed, *labels)
    assert stream.bit_generator.state == by_int.bit_generator.state
    assert stream.integers(0, 2 ** 62, 4).tolist() == by_int.integers(
        0, 2 ** 62, 4).tolist()
