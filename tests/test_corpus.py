import itertools

import numpy as np
import pytest

from skewrec import corpus
from skewrec.errors import DataError

import oracles
from conftest import build_corpus, synth_log_lines


def write(tmp_path, text, name="log.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadInteractions:
    def test_basic_counts(self, tmp_path):
        log = corpus.load_interactions(write(tmp_path, "7 42\n7 43\n9 42\n"))
        assert log.n_users == 2
        assert log.n_items == 2
        assert len(log.records) == 3

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(DataError, match=":1:"):
            corpus.load_interactions(write(tmp_path, "7\n"))
        with pytest.raises(DataError, match=":2:"):
            corpus.load_interactions(write(tmp_path, "7 42\n7 notanitem\n"))

    def test_empty_file_errors(self, tmp_path):
        with pytest.raises(DataError):
            corpus.load_interactions(write(tmp_path, ""))

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(DataError):
            corpus.load_interactions(str(tmp_path / "absent.txt"))

    def test_reindex_bijective(self, tmp_path):
        rng = np.random.default_rng(0)
        raw_users = rng.choice(10_000, size=30, replace=False)
        raw_items = rng.choice(50_000, size=40, replace=False)
        lines = []
        for u in raw_users:
            for it in rng.choice(raw_items, size=3, replace=False):
                lines.append(f"{u} {it}")
        log = corpus.load_interactions(write(tmp_path, "\n".join(lines)))
        for orig, dense in log.user_index.items():
            assert log.user_ids[dense] == orig
        for orig, dense in log.item_index.items():
            assert log.item_ids[dense - 1] == orig
        assert min(log.item_index.values()) == 1  # 0 reserved for padding


class TestBuildSequences:
    def test_caps_to_trailing_window(self, tmp_path):
        lines = [f"0 {i % 70 + 1}" for i in range(60)]
        log = corpus.load_interactions(write(tmp_path, "\n".join(lines)))
        seqs, dropped = corpus.build_sequences(log, 50)
        assert len(seqs[0].items) == 50
        assert dropped == 0
        # the tail of the action stream, in order
        expect = [log.item_index[i % 70 + 1] for i in range(10, 60)]
        assert seqs[0].items == expect

    def test_short_user_dropped(self, tmp_path):
        log = corpus.load_interactions(write(tmp_path, "0 1\n0 2\n1 1\n1 2\n1 3\n"))
        seqs, dropped = corpus.build_sequences(log, 50)
        assert dropped == 1
        assert [s.user_id for s in seqs] == [1]

    def test_exactly_three_kept(self, tmp_path):
        log = corpus.load_interactions(write(tmp_path, "0 1\n0 2\n0 3\n"))
        seqs, dropped = corpus.build_sequences(log, 50)
        assert len(seqs) == 1 and len(seqs[0].items) == 3 and dropped == 0

    def test_all_users_short_errors(self, tmp_path):
        log = corpus.load_interactions(write(tmp_path, "0 1\n0 2\n"))
        with pytest.raises(DataError):
            corpus.build_sequences(log, 50)


class TestSplit:
    def test_four_items(self):
        seqs = [corpus.UserSequence(0, [10, 11, 12, 13])]
        split = corpus.split_leave_one_out(seqs, 20, 10)
        assert split.train[0] == [10, 11]
        assert split.valid_target[0] == 12
        assert split.test_target[0] == 13
        assert split.eval_row(0, "valid") == ([10, 11], 12)
        assert split.eval_row(0, "test") == ([10, 11, 12], 13)

    def test_minimum_length(self):
        split = corpus.split_leave_one_out([corpus.UserSequence(0, [1, 2, 3])], 5, 10)
        assert split.train[0] == [1]
        assert (split.valid_target[0], split.test_target[0]) == (2, 3)

    def test_one_target_pair_per_user(self, tmp_path):
        rng = np.random.default_rng(3)
        _, split, _ = build_corpus(tmp_path, synth_log_lines(100, 30, rng))
        assert split.n_users == 100
        assert len(split.valid_target) == 100
        assert len(split.test_target) == 100

    def test_no_target_leakage(self, tmp_path):
        rng = np.random.default_rng(4)
        _, split, _ = build_corpus(tmp_path, synth_log_lines(50, 20, rng))
        for u in range(split.n_users):
            full = split.full_sequence(u)
            assert full[:-2] == split.train[u]


class TestCooc:
    def test_two_users_sharing_pair(self):
        split = corpus.SplitDataset(
            train=[[5, 9, 3], [9, 1, 5]], valid_target=[1, 1], test_target=[2, 2],
            user_ids=[0, 1], n_items=9, max_len=10, item_ids=list(range(1, 10)))
        cooc = corpus.build_cooc(split)
        assert oracles.pair_count(cooc, 5, 9) == 2
        assert oracles.pair_count(cooc, 9, 5) == 2

    def test_duplicates_count_once_per_user(self):
        split = corpus.SplitDataset(
            train=[[4, 4, 7]], valid_target=[1], test_target=[2],
            user_ids=[0], n_items=8, max_len=10, item_ids=list(range(1, 9)))
        cooc = corpus.build_cooc(split)
        assert oracles.pair_count(cooc, 4, 7) == 1
        assert cooc.item_count[4] == 2  # occurrences, not users

    def test_never_cooccurring(self):
        split = corpus.SplitDataset(
            train=[[1, 2], [3, 4]], valid_target=[1, 1], test_target=[2, 2],
            user_ids=[0, 1], n_items=4, max_len=10, item_ids=[1, 2, 3, 4])
        cooc = corpus.build_cooc(split)
        assert oracles.pair_count(cooc, 1, 3) == 0

    @staticmethod
    def brute_force_counts(train_lists, n_items):
        item_count = np.zeros(n_items + 1, dtype=np.int64)
        pair_count = {}
        for items in train_lists:
            for it in items:
                item_count[it] += 1
            for a, b in itertools.combinations(sorted(set(items)), 2):
                pair_count[(a, b)] = pair_count.get((a, b), 0) + 1
        return item_count, pair_count

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n_users = int(rng.integers(1, 11))
            n_items = int(rng.integers(2, 9))
            train = [list(rng.integers(1, n_items + 1, size=rng.integers(1, 7)))
                     for _ in range(n_users)]
            split = corpus.SplitDataset(
                train=train, valid_target=[1] * n_users, test_target=[1] * n_users,
                user_ids=list(range(n_users)), n_items=n_items, max_len=10,
                item_ids=list(range(1, n_items + 1)))
            cooc = corpus.build_cooc(split)
            items_ref, pairs_ref = self.brute_force_counts(train, n_items)
            assert np.array_equal(cooc.item_count, items_ref)
            for i in range(1, n_items + 1):
                for j in range(1, n_items + 1):
                    ref = pairs_ref.get((min(i, j), max(i, j)), 0) if i != j else 0
                    assert oracles.pair_count(cooc, i, j) == ref

    def test_symmetry_and_bound_random(self, small_corpus):
        _, split, cooc = small_corpus
        dense = cooc.pairs.toarray()
        assert np.array_equal(dense, dense.T)
        for i in range(1, split.n_items + 1):
            for j in range(i + 1, split.n_items + 1):
                assert dense[i, j] <= min(cooc.item_count[i], cooc.item_count[j])

    def test_counting_base_conventions(self):
        split = corpus.SplitDataset(
            train=[[1, 2], [1, 2], [1, 3]], valid_target=[1, 1, 1],
            test_target=[2, 2, 2], user_ids=[0, 1, 2], n_items=4, max_len=10,
            item_ids=[1, 2, 3, 4])
        cooc = corpus.build_cooc(split)
        base = cooc.counting_base([1, 2, 1, 4])
        assert base[0, 1] == pytest.approx((2 * 2) / (3 * 2))
        assert base[0, 2] == 1.0  # same item at two timesteps
        assert base[0, 0] == 1.0
        assert base[0, 3] == 0.0  # item 4 unseen in training
        assert base[3, 3] == 1.0  # unseen self-pair keeps a positive diagonal

    def test_block_of_padded_windows(self):
        """A left-padded id block gives, per row, the unpadded window and its
        counting base, with zeros at every padded pair."""
        split = corpus.SplitDataset(
            train=[[1, 2], [1, 2], [1, 3], [2, 3, 4]], valid_target=[1] * 4,
            test_target=[2] * 4, user_ids=[0, 1, 2, 3], n_items=5, max_len=10,
            item_ids=[1, 2, 3, 4, 5])
        cooc = corpus.build_cooc(split)
        block = np.array([[0, 0, 1, 2], [0, 3, 3, 5], [2, 4, 1, 3], [0, 0, 0, 0]])
        win, base = cooc.window(block), cooc.counting_base(block)
        for r, row in enumerate(block):
            o = int((row == 0).sum())
            if o < 4:
                np.testing.assert_array_equal(win[r, o:, o:], cooc.window(row[o:]))
                np.testing.assert_array_equal(base[r, o:, o:], cooc.counting_base(row[o:]))
                np.testing.assert_array_equal(win[r, o:, o:], oracles.cooc_window(row[o:], cooc))
            for arr in (win, base):
                assert not arr[r, :o].any() and not arr[r, :, :o].any()


class TestNegatives:
    def test_forced_single_candidate(self):
        rng = np.random.default_rng(0)
        out = corpus.sample_negatives(set(range(1, 10)), 10, 1, rng)
        assert out == [10]

    def test_k100_over_large_catalog(self):
        rng = np.random.default_rng(1)
        history = set(range(1, 31))
        out = corpus.sample_negatives(history, 930, 100, rng)
        assert len(out) == len(set(out)) == 100
        assert not set(out) & history
        assert 0 not in out

    def test_catalog_too_small(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DataError):
            corpus.sample_negatives({1, 2, 3}, 4, 2, rng)


class TestBatches:
    def _split(self, n_users, rng, seq_len=6, n_items=30):
        train = [list(rng.integers(1, n_items + 1, size=seq_len)) for _ in range(n_users)]
        return corpus.SplitDataset(
            train=train, valid_target=[1] * n_users, test_target=[2] * n_users,
            user_ids=list(range(n_users)), n_items=n_items, max_len=8,
            item_ids=list(range(1, n_items + 1)))

    def test_batch_sizes(self):
        rng = np.random.default_rng(5)
        split = self._split(130, rng)
        sizes = [b.item_ids.shape[0]
                 for b in corpus.make_batches(split, 128, 8, 1, np.random.default_rng(0))]
        assert sizes == [128, 2]

    def test_left_padding_layout(self):
        split = corpus.SplitDataset(
            train=[[3, 4, 5, 6]], valid_target=[1], test_target=[2], user_ids=[0],
            n_items=10, max_len=5, item_ids=list(range(1, 11)))
        batch = next(corpus.make_batches(split, 4, 5, 1, np.random.default_rng(0)))
        assert batch.item_ids.tolist() == [[0, 0, 3, 4, 5]]
        assert batch.targets.tolist() == [[0, 0, 4, 5, 6]]
        assert batch.pad_mask.tolist() == [[False, False, True, True, True]]

    def test_targets_shift_by_one(self, small_corpus):
        _, split, _ = small_corpus
        batch = next(corpus.make_batches(split, 8, split.max_len, 1,
                                         np.random.default_rng(1)))
        for r in range(batch.item_ids.shape[0]):
            valid = batch.pad_mask[r]
            ids = batch.item_ids[r, valid]
            tgt = batch.targets[r, valid]
            assert np.array_equal(ids[1:], tgt[:-1])

    def test_negatives_avoid_history(self, small_corpus):
        _, split, _ = small_corpus
        batch = next(corpus.make_batches(split, 8, split.max_len, 2,
                                         np.random.default_rng(2)))
        for r in range(batch.item_ids.shape[0]):
            hist = split.history(int(batch.user_ids[r]))
            negs = batch.negatives[r][batch.pad_mask[r]]
            assert not set(negs.ravel().tolist()) & hist

    def test_same_seed_same_stream(self, small_corpus):
        _, split, _ = small_corpus
        a = list(corpus.make_batches(split, 16, split.max_len, 1,
                                     np.random.default_rng(9)))
        b = list(corpus.make_batches(split, 16, split.max_len, 1,
                                     np.random.default_rng(9)))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.item_ids, y.item_ids)
            assert np.array_equal(x.negatives, y.negatives)
            assert np.array_equal(x.user_ids, y.user_ids)


class TestSerialization:
    def test_dataset_roundtrip(self, small_corpus, tmp_path):
        _, split, _ = small_corpus
        path = str(tmp_path / "dataset.json")
        corpus.save_dataset(split, path)
        loaded = corpus.load_dataset(path)
        assert loaded.train == split.train
        assert loaded.valid_target == split.valid_target
        assert loaded.test_target == split.test_target
        assert loaded.item_ids == split.item_ids

    def test_dataset_version_check(self, small_corpus, tmp_path):
        import json
        _, split, _ = small_corpus
        path = str(tmp_path / "dataset.json")
        corpus.save_dataset(split, path)
        payload = json.loads(open(path).read())
        payload["format_version"] = 99
        open(path, "w").write(json.dumps(payload))
        with pytest.raises(DataError, match="version"):
            corpus.load_dataset(path)

    def test_cooc_roundtrip(self, small_corpus, tmp_path):
        _, split, cooc = small_corpus
        path = str(tmp_path / "cooc.npz")
        corpus.save_cooc(cooc, path)
        loaded = corpus.load_cooc(path)
        assert np.array_equal(loaded.item_count, cooc.item_count)
        assert (loaded.pairs != cooc.pairs).nnz == 0
