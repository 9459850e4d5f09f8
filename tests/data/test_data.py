"""Tests for vocabulary, users, corpus, LaMP generators and the buffer."""

import numpy as np
import pytest

from repro.data import (
    DataBuffer,
    LaMP3,
    Sample,
    available_datasets,
    build_corpus,
    build_tokenizer,
    make_dataset,
    make_user,
    make_users,
)
from repro.data import vocabulary as V
from repro.data.users import UserProfile


class TestVocabulary:
    def test_unique_words(self):
        words = V.build_vocabulary()
        assert len(words) == len(set(words))

    def test_fifteen_topics_with_content(self):
        assert len(V.TOPICS) == 15
        for topic in V.TOPICS:
            assert len(V.CONTENT_WORDS[topic]) == 4

    def test_topic_of_content_word(self):
        assert V.topic_of_content_word("robot") == "scifi"
        assert V.topic_of_content_word("the") is None

    def test_tokenizer_covers_vocabulary(self):
        tok = build_tokenizer()
        for word in V.build_vocabulary():
            assert word in tok


class TestUsers:
    def test_deterministic_profiles(self):
        assert make_user(3, seed=1) == make_user(3, seed=1)

    def test_distinct_users_distinct_profiles(self):
        users = make_users(30, seed=0)
        assert len({u.preferred_topics for u in users}) > 10

    def test_profile_fields_valid(self):
        for user in make_users(50, seed=2):
            assert user.rating_bias in (-1, 0, 1)
            assert len(user.preferred_topics) == 3
            assert len(user.style_words) == 2

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            UserProfile(0, (), 0, ("wow", "hmm"))
        with pytest.raises(ValueError):
            UserProfile(0, ("scifi",), 5, ("wow", "hmm"))

    def test_n_topics_bounds(self):
        with pytest.raises(ValueError):
            make_user(0, n_topics=0)


class TestCorpus:
    def test_stream_tokens_in_vocab(self):
        tok = build_tokenizer()
        stream = build_corpus(tok, n_sentences=50, seed=0)
        assert stream.min() >= 0 and stream.max() < tok.vocab_size
        assert tok.unk_id not in stream

    def test_sentences_separated_by_eos(self):
        tok = build_tokenizer()
        stream = build_corpus(tok, n_sentences=40, seed=0)
        assert (stream == tok.eos_id).sum() == 40

    def test_deterministic(self):
        tok = build_tokenizer()
        a = build_corpus(tok, n_sentences=20, seed=5)
        b = build_corpus(tok, n_sentences=20, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            build_corpus(build_tokenizer(), n_sentences=0)


class TestLaMPDatasets:
    def test_registry_names(self):
        assert available_datasets() == ["LaMP-1", "LaMP-2", "LaMP-3",
                                        "LaMP-5", "LaMP-7"]

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            make_dataset("LaMP-9")

    def test_metrics_assignment(self):
        assert make_dataset("LaMP-1").metric == "accuracy"
        assert make_dataset("LaMP-5").metric == "rouge1"

    @pytest.mark.parametrize("name", available_datasets())
    def test_generation_deterministic(self, name):
        ds = make_dataset(name)
        user = make_user(1, seed=0)
        a = ds.generate(user, 10, seed=3)
        b = ds.generate(user, 10, seed=3)
        assert a == b

    @pytest.mark.parametrize("name", available_datasets())
    def test_inputs_end_with_cue(self, name):
        cues = {"LaMP-1": V.CUE_CITE, "LaMP-2": V.CUE_TAG,
                "LaMP-3": V.CUE_RATING, "LaMP-5": V.CUE_TITLE,
                "LaMP-7": V.CUE_PARAPHRASE}
        ds = make_dataset(name)
        user = make_user(2, seed=0)
        for sample in ds.generate(user, 6, seed=0):
            assert sample.input_text.split()[-1] == cues[name]
            assert sample.target_text

    def test_lamp1_label_stable_within_domain(self):
        ds = make_dataset("LaMP-1")
        user = make_user(4, seed=0)
        domain = ds.user_domains(user)[0]
        samples = ds.generate(user, 12, seed=1, domains=[domain])
        assert len({s.target_text for s in samples}) == 1

    def test_lamp2_label_is_preferred_topic(self):
        ds = make_dataset("LaMP-2")
        user = make_user(5, seed=0)
        for sample in ds.generate(user, 9, seed=0):
            assert sample.target_text in user.preferred_topics

    def test_lamp3_rating_respects_bias_and_range(self):
        ds = LaMP3()
        user = make_user(6, seed=0)
        for sample in ds.generate(user, 9, seed=0):
            rating = int(sample.target_text)
            assert 1 <= rating <= 5

    def test_lamp5_target_contains_topic_and_style(self):
        ds = make_dataset("LaMP-5")
        user = make_user(7, seed=0)
        sample = ds.generate(user, 1, seed=0)[0]
        assert sample.domain in sample.target_text
        assert user.style_words[0] in sample.target_text

    def test_lamp7_target_wraps_body_in_style(self):
        ds = make_dataset("LaMP-7")
        user = make_user(8, seed=0)
        sample = ds.generate(user, 1, seed=0)[0]
        words = sample.target_text.split()
        assert words[0] == user.style_words[0]
        assert words[-1] == user.style_words[1]

    def test_full_text_concatenation(self):
        s = Sample("LaMP-2", 0, "movie about x tag", "drama", "d")
        assert s.full_text() == "movie about x tag drama"

    def test_generate_count_validation(self):
        with pytest.raises(ValueError):
            make_dataset("LaMP-2").generate(make_user(0), 0)

    def test_domain_restriction_respected(self):
        ds = make_dataset("LaMP-2")
        user = make_user(9, seed=0)
        domain = ds.user_domains(user)[1]
        samples = ds.generate(user, 8, seed=0, domains=[domain])
        assert all(s.domain == domain for s in samples)


class TestDataBuffer:
    def test_fills_to_capacity(self):
        buffer = DataBuffer(3)
        sample = Sample("t", 0, "a b", "c", "d")
        for i in range(3):
            assert not buffer.is_full
            buffer.add(sample, np.ones(4) * i)
        assert buffer.is_full and len(buffer) == 3

    def test_fifo_eviction(self):
        buffer = DataBuffer(2)
        for i in range(3):
            buffer.add(Sample("t", i, "a", "b", "d"), np.full(2, float(i)))
        assert buffer.samples[0].user_id == 1
        np.testing.assert_allclose(buffer.embedding_matrix()[:, 0], [1.0, 2.0])

    def test_take_all_drains(self):
        buffer = DataBuffer(2)
        buffer.add(Sample("t", 0, "a", "b", "d"), np.zeros(2))
        buffer.add(Sample("t", 1, "a", "b", "d"), np.ones(2))
        samples, embeddings = buffer.take_all()
        assert len(samples) == 2 and embeddings.shape == (2, 2)
        assert len(buffer) == 0

    def test_embedding_dim_checked(self):
        buffer = DataBuffer(3)
        buffer.add(Sample("t", 0, "a", "b", "d"), np.zeros(4))
        with pytest.raises(ValueError):
            buffer.add(Sample("t", 1, "a", "b", "d"), np.zeros(5))

    def test_empty_matrix_raises(self):
        with pytest.raises(ValueError):
            DataBuffer(2).embedding_matrix()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            DataBuffer(0)
