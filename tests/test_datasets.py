"""Dataset substrate: generators, corpora and the file loader."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.corpora import (
    CORPUS_BUILDERS,
    synthetic_aol,
    synthetic_dblp,
    synthetic_enron,
    synthetic_tweet,
)
from repro.datasets.generators import (
    CorpusSpec,
    ZipfVocabulary,
    generate_corpus,
    lognormal_lengths,
    normal_lengths,
    poisson_lengths,
)
from repro.datasets.loader import load_token_file, save_token_file
from repro.similarity.ordering import TokenDictionary
from repro.streams.stream import RecordStream


class TestZipfVocabulary:
    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfVocabulary(0)
        with pytest.raises(ValueError):
            ZipfVocabulary(10, skew=0)

    def test_sample_range(self):
        vocab = ZipfVocabulary(100)
        rng = random.Random(0)
        ids = [vocab.sample(rng) for _ in range(1000)]
        assert all(0 <= t < 100 for t in ids)

    def test_rare_first_numbering(self):
        """High ids must be the frequent (Zipf head) tokens."""
        vocab = ZipfVocabulary(1000, skew=1.2)
        rng = random.Random(1)
        from collections import Counter

        counts = Counter(vocab.sample(rng) for _ in range(20_000))
        top_token, _ = counts.most_common(1)[0]
        assert top_token > 900  # most frequent token has a high id

    def test_sample_set_distinct_sorted(self):
        vocab = ZipfVocabulary(50)
        rng = random.Random(2)
        for count in (1, 5, 25, 50, 60):
            tokens = vocab.sample_set(rng, count)
            assert list(tokens) == sorted(set(tokens))
            assert len(tokens) == min(count, 50)


class TestLengthModels:
    def test_poisson_clipped(self):
        model = poisson_lengths(mean=2.0, lo=1, hi=5)
        rng = random.Random(3)
        values = [model(rng) for _ in range(500)]
        assert all(1 <= v <= 5 for v in values)

    def test_normal_clipped(self):
        model = normal_lengths(mean=10, stddev=3, lo=5, hi=15)
        rng = random.Random(3)
        values = [model(rng) for _ in range(500)]
        assert all(5 <= v <= 15 for v in values)
        assert 8 < sum(values) / len(values) < 12

    def test_lognormal_long_tail(self):
        model = lognormal_lengths(mu=4.4, sigma=0.55, lo=10, hi=400)
        rng = random.Random(3)
        values = [model(rng) for _ in range(2000)]
        assert all(10 <= v <= 400 for v in values)
        assert max(values) > 3 * (sum(values) / len(values))  # heavy tail


class TestGenerateCorpus:
    def spec(self, **overrides):
        defaults = dict(
            name="t",
            vocabulary_size=200,
            length_model=normal_lengths(8, 2, 3, 15),
            duplicate_rate=0.5,
            exact_duplicate_fraction=0.5,
        )
        defaults.update(overrides)
        return CorpusSpec(**defaults)

    def test_deterministic_per_seed(self):
        spec = self.spec()
        assert generate_corpus(spec, 100, seed=5) == generate_corpus(spec, 100, seed=5)
        assert generate_corpus(spec, 100, seed=5) != generate_corpus(spec, 100, seed=6)

    def test_records_canonical(self):
        for tokens in generate_corpus(self.spec(), 200, seed=1):
            assert list(tokens) == sorted(set(tokens))
            assert tokens  # never empty

    def test_duplicates_produce_exact_copies(self):
        corpus = generate_corpus(self.spec(duplicate_rate=0.8), 300, seed=2)
        assert len(set(corpus)) < len(corpus)

    def test_zero_duplicate_rate(self):
        corpus = generate_corpus(self.spec(duplicate_rate=0.0), 100, seed=2)
        assert len(corpus) == 100

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            generate_corpus(self.spec(), -1)


class TestCorpora:
    @pytest.mark.parametrize("name,builder", sorted(CORPUS_BUILDERS.items()))
    def test_builders_produce_named_streams(self, name, builder):
        stream = builder(200, seed=7)
        assert isinstance(stream, RecordStream)
        assert stream.name == name
        assert len(stream) == 200

    def test_length_profiles_are_distinct(self):
        aol = synthetic_aol(500, seed=1).statistics()
        tweet = synthetic_tweet(500, seed=1).statistics()
        enron = synthetic_enron(500, seed=1).statistics()
        assert aol.avg_size < tweet.avg_size < enron.avg_size
        assert enron.avg_size > 50

    def test_vocabulary_override(self):
        small = synthetic_tweet(300, seed=1, vocabulary_size=100).statistics()
        assert small.vocabulary_size <= 100

    def test_duplicate_rate_raises_result_density(self):
        from repro.core.reference import naive_join
        from repro.similarity.functions import Jaccard

        low = synthetic_tweet(300, seed=5, duplicate_rate=0.02)
        high = synthetic_tweet(300, seed=5, duplicate_rate=0.5)
        func = Jaccard(0.9)
        assert len(naive_join(high.records(), func)) > len(
            naive_join(low.records(), func)
        )


class TestLoader:
    def test_round_trip_with_dictionary(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("apple banana\nbanana cherry cherry\n\napple\n")
        stream, dictionary = load_token_file(path)
        assert len(stream) == 3  # blank line skipped
        decoded = [set(dictionary.decode(r)) for r in stream.corpus]
        assert decoded == [{"apple", "banana"}, {"banana", "cherry"}, {"apple"}]
        assert dictionary.is_ranked

    def test_max_records(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a\nb\nc\n")
        stream, _ = load_token_file(path, max_records=2)
        assert len(stream) == 2

    def test_save_then_load_preserves_sets(self, tmp_path):
        original, dictionary = load_token_file(
            self._write(tmp_path, "x y z\nz y\n"), name="orig"
        )
        out = tmp_path / "saved.txt"
        assert save_token_file(out, original, dictionary) == 2
        reloaded, d2 = load_token_file(out)
        original_sets = [set(dictionary.decode(r)) for r in original.corpus]
        reloaded_sets = [set(d2.decode(r)) for r in reloaded.corpus]
        assert original_sets == reloaded_sets

    def test_save_numeric_ids(self, tmp_path):
        stream = RecordStream([(1, 2), (3,)])
        out = tmp_path / "ids.txt"
        save_token_file(out, stream)
        assert out.read_text() == "1 2\n3\n"

    @staticmethod
    def _write(tmp_path, text):
        path = tmp_path / "in.txt"
        path.write_text(text)
        return path


def two_pass_load(lines, max_records=None):
    """The two-pass load the one-pass dictionary replaced: observe and
    assign ids token by token, rank, then map every token again."""
    raw = [line.split() for line in lines if line.split()][:max_records]
    dictionary = TokenDictionary()
    for record in raw:
        dictionary.observe(record)
        for token in record:
            dictionary.id_of(token)
    dictionary.rank_by_frequency()
    corpus = [tuple(sorted({dictionary.id_of(t) for t in r})) for r in raw]
    return dictionary, corpus


def dictionary_state(dictionary):
    return (dictionary._token_of, dictionary._id_of,
            dict(dictionary._frequency), dictionary.is_ranked)


#: Tokens whose ``repr`` order differs from their ``str`` order (quotes
#: switch repr's delimiters, backslashes double), plus non-ASCII ones.
_token = st.text(alphabet="ab'\"\\é中", min_size=1, max_size=3)
_record = st.lists(_token, max_size=8)  # repeats and blank lines included


class TestOnePassDictionary:
    @given(
        records=st.lists(_record, max_size=25),
        max_records=st.none() | st.integers(1, 12),
    )
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_load_matches_two_pass_reference(self, tmp_path, records,
                                             max_records):
        lines = [" ".join(record) for record in records]
        path = tmp_path / "in.txt"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        stream, dictionary = load_token_file(path, max_records=max_records)
        reference, corpus = two_pass_load(lines, max_records)
        assert dictionary_state(dictionary) == dictionary_state(reference)
        assert stream.corpus == corpus

    def test_from_corpus_accepts_one_shot_generators(self):
        records = [["b", "a", "b"], ["c", "a"], ["a"]]
        expected = TokenDictionary.from_corpus(records)
        one_shot = TokenDictionary.from_corpus(iter(r) for r in records)
        assert dictionary_state(one_shot) == dictionary_state(expected)
        assert [expected.token_of(i) for i in range(3)] == ["b", "c", "a"]

    def test_canonicalize_assigns_unseen_tokens_in_order(self):
        dictionary = TokenDictionary.from_corpus([["x", "y"], ["y"]])
        assert dictionary.canonicalize(iter(["q", "y", "p", "q"])) == (1, 2, 3)
        assert [dictionary.token_of(i) for i in (2, 3)] == ["q", "p"]
