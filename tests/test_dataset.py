import csv
import gzip
import io
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.dtypes import StringDType
from hypothesis import example, given, settings
from hypothesis import strategies as st

import persgain.dataset
from persgain._util import csv_bytes, csv_cell, stream
from persgain.dataset import (
    CovariateSpec,
    ExperimentDataset,
    SealedOutcomes,
    SynthDGP,
    generate_synthetic,
    load_csv,
    one_factor_dgp,
    rerandomize_assignment,
    split,
    write_csv,
)
from persgain.errors import ConfigError, ParseError
from persgain.estimation import estimate_sigma_rho


def tiny_dataset(**overrides):
    base = dict(
        unit_ids=("a", "b", "c", "d"),
        x=np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 0.0], [4.0, 1.0]]),
        arm=np.array([0, 1, 0, 1]),
        outcome=np.array([1.0, 2.0, 3.0, 4.0]),
        propensity=np.full(4, 0.5),
        arm_names=("control", "treat"),
        covariate_names=("age", "flag"),
    )
    base.update(overrides)
    return ExperimentDataset(**base)


class TestDatasetValidation:
    def test_accepts_well_formed(self):
        ds = tiny_dataset()
        assert ds.n == 4 and ds.m == 2 and ds.p == 2
        assert list(ds.arm_counts()) == [2, 2]

    def test_rejects_propensity_outside_unit_interval(self):
        with pytest.raises(ConfigError, match=r"\(0, 1\]"):
            tiny_dataset(propensity=np.array([0.5, 0.5, 0.0, 0.5]))
        with pytest.raises(ConfigError, match=r"\(0, 1\]"):
            tiny_dataset(propensity=np.array([0.5, 0.5, 1.5, 0.5]))

    def test_randomized_design_needs_constant_arm_propensity(self):
        with pytest.raises(ConfigError, match="single propensity per arm"):
            tiny_dataset(propensity=np.array([0.5, 0.5, 0.4, 0.6]))

    def test_randomized_design_propensities_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum to"):
            tiny_dataset(propensity=np.array([0.5, 0.4, 0.5, 0.4]))

    def test_sum_check_skipped_when_an_arm_is_unobserved(self):
        # a subset can lose an arm; per-arm constancy is still checkable but
        # the sum across arms is not
        ds = tiny_dataset().subset([0, 2])
        assert ds.n == 2
        assert set(ds.arm.tolist()) == {0}

    def test_rejects_nonfinite_outcome(self):
        with pytest.raises(ConfigError, match="finite"):
            tiny_dataset(outcome=np.array([1.0, math.inf, 3.0, 4.0]))

    def test_rejects_bad_arm_index(self):
        with pytest.raises(ConfigError, match="arm indices"):
            tiny_dataset(arm=np.array([0, 1, 2, 1]))

    def test_rejects_duplicate_arm_names(self):
        with pytest.raises(ConfigError, match="'treat' appears more than once"):
            tiny_dataset(arm=np.array([0, 1, 2, 1]), propensity=np.full(4, 1 / 3),
                         arm_names=("control", "treat", "treat"))

    def test_arrays_are_read_only(self):
        ds = tiny_dataset()
        for field in ("unit_ids", "x", "arm", "outcome", "propensity"):
            column = getattr(ds, field)
            with pytest.raises(ValueError):
                column[0] = column[1]
        sealed = SealedOutcomes(np.zeros((4, 2)), ("a", "b", "c", "d"))
        for column in (sealed.y, sealed.unit_ids):
            with pytest.raises(ValueError):
                column[0] = column[1]

    def test_unit_ids_are_a_str_array_and_a_non_str_id_is_stored_as_its_str(self):
        ids = (7, "b", 2.5, np.str_("d"))
        for given in (ids, list(ids), np.array(ids, dtype=object)):
            ds = tiny_dataset(unit_ids=given)
            assert isinstance(ds.unit_ids, np.ndarray) and ds.unit_ids.dtype == StringDType()
            assert ds.unit_ids.shape == (4,)
            assert ds.unit_ids.tolist() == ["7", "b", "2.5", "d"]
            assert [type(u) for u in ds.unit_ids] == [str] * 4
        sealed = SealedOutcomes(np.zeros((4, 2)), ids)
        assert sealed.unit_ids.tolist() == ["7", "b", "2.5", "d"]

    def test_a_str_id_array_is_kept_as_it_is(self):
        ids = np.array(["a", "b", "c", "d\x00"], dtype=StringDType())
        ds = tiny_dataset(unit_ids=ids)
        assert ds.unit_ids is ids and not ids.flags.writeable
        # a subset's ids are already text and are not rebuilt
        assert ds.subset([3, 0]).unit_ids.tolist() == ["d\x00", "a"]

    def test_subset_keeps_ids_aligned_with_their_rows(self):
        ds = tiny_dataset()
        idx = [3, 1, 3, 0]
        sub = ds.subset(idx)
        assert sub.unit_ids.tolist() == ["d", "b", "d", "a"]
        for field in ("x", "arm", "outcome", "propensity"):
            assert np.array_equal(getattr(sub, field), getattr(ds, field)[idx])


# ids StringDType holds inline (up to 15 UTF-8 bytes) and out of line, with
# non-ASCII text, embedded NULs and code points past the BMP, whose UTF-16
# order differs from their code point order
ODD_IDS = ("z", "\u00e9", "a\x00b", "a", "\x00", "x" * 16, "\u00e9" * 8, "\U0001f600",
           "\uff5e", "\u65e5\u672c\u8a9e\u306e\u8b58\u5225\u5b50")


def _ids_dataset(ids, arm_names=("a", "b")):
    n = len(ids)
    return ExperimentDataset(
        unit_ids=ids,
        x=np.arange(n, dtype=float)[:, None],
        arm=np.arange(n) % 2,
        outcome=np.arange(n, dtype=float),
        propensity=np.full(n, 0.5),
        arm_names=arm_names,
        covariate_names=("c",),
    )


class TestUnitIds:
    def test_an_id_utf8_cannot_encode_is_a_config_error_naming_its_row(self):
        # a lone surrogate used to pass construction and fail in write_csv
        # with a UnicodeEncodeError
        ids = ("a", "b", "c\ud800", "d")
        message = r"^unit id 'c\\ud800' in row 2 cannot be encoded as UTF-8$"
        with pytest.raises(ConfigError, match=message):
            tiny_dataset(unit_ids=ids)
        with pytest.raises(ConfigError, match=message):
            SealedOutcomes(np.zeros((4, 2)), np.array(ids, dtype=object))

    @pytest.mark.parametrize("reader", ["columns", "rows"])
    def test_odd_ids_round_trip_through_either_reader_and_subset(self, tmp_path, tokenizers,
                                                                  reader):
        ids = ODD_IDS
        if reader == "rows":
            if sys.version_info < (3, 11):  # csv.reader takes NUL from 3.11
                ids = tuple(uid for uid in ids if "\x00" not in uid)
            ds = _ids_dataset(ids, arm_names=("a,0", "b"))  # a quoted cell takes the row loop
        else:
            ds = _ids_dataset(ids)
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        back = load_csv(path)
        # the one block of rows goes through one tokenizer
        assert tokenizers == (["rows from 1"] if reader == "rows" else ["loadtxt"])
        assert back.unit_ids.dtype == StringDType() and back.unit_ids.tolist() == list(ids)
        assert back.arm.tolist() == ds.arm.tolist()
        picked = [5, 0, 2, 5]
        assert back.subset(picked).unit_ids.tolist() == [ids[i] for i in picked]
        assert ds.subset(picked).unit_ids.tolist() == [ids[i] for i in picked]

    @pytest.mark.filterwarnings("ignore:.*cells hold fewer than 30 units")
    def test_tied_scores_rank_by_id_as_python_sorts_str(self):
        # every score ties, so each arm ranks the holdout by id alone; the
        # ids' outcomes are their Python sort positions and the arms
        # alternate along that order, so bin q holds positions 2q and 2q+1
        order = sorted(ODD_IDS)
        assert order != sorted(ODD_IDS, key=lambda uid: uid.encode("utf-16-be"))
        shuffled = [order[i] for i in np.random.default_rng(5).permutation(len(order))]
        rank = {uid: k for k, uid in enumerate(order)}
        n = len(shuffled)
        holdout = ExperimentDataset(
            unit_ids=shuffled,
            x=np.zeros((n, 1)),
            arm=np.array([rank[uid] % 2 for uid in shuffled]),
            outcome=np.array([float(rank[uid]) for uid in shuffled]),
            propensity=np.full(n, 0.5),
            arm_names=("a", "b"),
            covariate_names=("c",),
        )
        *_, diagnostics = estimate_sigma_rho(holdout, np.zeros((n, 2)), n_quantiles=n // 2)
        assert diagnostics["bin_means"] == [[2.0 * q + a for q in range(n // 2)] for a in (0, 1)]


class TestSynthDGP:
    def test_one_factor_hits_requested_moments_exactly(self):
        dgp = one_factor_dgp(m=5, sigma=0.267, rho=0.8, intercepts=[0.1] * 5, noise_sd=0.3)
        assert dgp.true_sigma() == pytest.approx(0.267, abs=1e-12)
        assert dgp.true_rho_mean() == pytest.approx(0.8, abs=1e-12)
        off = dgp.true_rho_matrix()[np.triu_indices(5, k=1)]
        assert np.allclose(off, 0.8, atol=1e-12)

    def test_true_s_is_spread_of_arm_means(self):
        dgp = one_factor_dgp(m=3, sigma=1.0, rho=0.5, intercepts=[1.0, 2.0, 4.0], noise_sd=0.1)
        assert dgp.true_s() == pytest.approx(np.std([1.0, 2.0, 4.0], ddof=1))

    def test_rho_matrix_handles_zero_signal_arm(self):
        beta = np.array([[1.0], [0.0]])
        dgp = SynthDGP((0.0, 0.0), beta, (CovariateSpec("normal"),), noise_sd=0.0)
        rho = dgp.true_rho_matrix()
        assert rho[0, 1] == 0.0 and rho[0, 0] == 1.0

    def test_config_round_trip(self):
        dgp = one_factor_dgp(m=3, sigma=0.5, rho=0.25, intercepts=[0.0, 0.1, 0.2], noise_sd=0.2)
        again = SynthDGP.from_config(dgp.to_config())
        assert np.array_equal(again.beta, dgp.beta)
        assert again.true_sigma() == dgp.true_sigma()

    def test_rejects_bad_shapes_and_kinds(self):
        with pytest.raises(ConfigError, match="rho"):
            one_factor_dgp(m=3, sigma=1.0, rho=-0.2, intercepts=[0.0] * 3, noise_sd=0.1)
        with pytest.raises(ConfigError, match="beta shape"):
            SynthDGP((0.0, 0.0), np.zeros((2, 3)), (CovariateSpec("normal"),), 0.1)
        with pytest.raises(ConfigError, match="outcome_kind"):
            SynthDGP((0.0, 0.0), np.zeros((2, 1)), (CovariateSpec("normal"),), 0.1, "poisson")


class TestGenerateSynthetic:
    def test_observed_outcome_is_a_sealed_entry(self):
        dgp = one_factor_dgp(m=4, sigma=0.3, rho=0.5, intercepts=[0.0] * 4, noise_sd=0.2)
        ds, sealed = generate_synthetic(dgp, n=500, seed=11)
        assert ds.unit_ids.tolist() == sealed.unit_ids.tolist()
        picked = sealed.y[np.arange(ds.n), ds.arm]
        assert np.array_equal(ds.outcome, picked)
        assert np.all(ds.propensity == 0.25)

    def test_realized_signal_matches_ground_truth(self):
        # recompute h^a(x) from the returned covariates; its empirical
        # moments must sit on the DGP's exact values
        dgp = one_factor_dgp(m=4, sigma=0.267, rho=0.8, intercepts=[0.0] * 4, noise_sd=0.25)
        ds, _ = generate_synthetic(dgp, n=200_000, seed=3)
        h = np.asarray(dgp.intercepts) + ds.x @ dgp.beta.T
        sds = h.std(axis=0, ddof=1)
        assert np.allclose(sds, 0.267, rtol=0.02)
        corr = np.corrcoef(h.T)
        off = corr[np.triu_indices(4, k=1)]
        assert np.allclose(off, 0.8, atol=0.01)

    def test_sealed_column_variance_includes_noise(self):
        dgp = one_factor_dgp(m=3, sigma=0.5, rho=0.2, intercepts=[0.0] * 3, noise_sd=0.4)
        _, sealed = generate_synthetic(dgp, n=100_000, seed=4)
        want = math.sqrt(0.5**2 + 0.4**2)
        assert np.allclose(sealed.y.std(axis=0, ddof=1), want, rtol=0.02)

    def test_arm_counts_concentrate_at_uniform(self):
        dgp = one_factor_dgp(m=5, sigma=0.1, rho=0.0, intercepts=[0.0] * 5, noise_sd=0.1)
        ds, _ = generate_synthetic(dgp, n=50_000, seed=9)
        expected = ds.n / 5
        sd = math.sqrt(ds.n * 0.2 * 0.8)
        assert np.all(np.abs(ds.arm_counts() - expected) < 4 * sd)

    def test_zero_beta_makes_outcomes_pure_noise_around_intercepts(self):
        dgp = SynthDGP(
            (1.0, 5.0),
            np.zeros((2, 1)),
            (CovariateSpec("normal"),),
            noise_sd=0.5,
        )
        _, sealed = generate_synthetic(dgp, n=40_000, seed=2)
        assert sealed.y[:, 0].mean() == pytest.approx(1.0, abs=4 * 0.5 / math.sqrt(40_000))
        assert sealed.y[:, 1].mean() == pytest.approx(5.0, abs=4 * 0.5 / math.sqrt(40_000))

    def test_bernoulli_latent_outcomes_are_zero_one(self):
        dgp = SynthDGP(
            (0.5, 0.5),
            np.zeros((2, 1)),
            (CovariateSpec("normal"),),
            noise_sd=0.0,
            outcome_kind="bernoulli-latent",
        )
        ds, sealed = generate_synthetic(dgp, n=20_000, seed=7)
        assert set(np.unique(sealed.y)) <= {0.0, 1.0}
        assert ds.outcome.mean() == pytest.approx(0.5, abs=4 * 0.5 / math.sqrt(20_000))

    def test_outcomes_are_the_bits_of_signal_plus_scaled_noise(self):
        # the noise array takes the signal in place; addition and
        # multiplication commute in IEEE arithmetic, so each cell keeps the
        # bits of (intercepts + x beta') + noise_sd * normal
        dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.4, intercepts=[0.1, -0.2, 0.3], noise_sd=0.7)
        ds, sealed = generate_synthetic(dgp, n=5_000, seed=8)
        rng = stream(8)
        x = np.column_stack([c.draw(5_000, rng) for c in dgp.covariates])
        arms = rng.integers(0, 3, size=5_000)
        h = np.asarray(dgp.intercepts) + x @ dgp.beta.T
        y = h + dgp.noise_sd * rng.standard_normal((5_000, 3))
        assert sealed.y.tobytes() == y.tobytes()
        assert ds.x.tobytes() == x.tobytes() and ds.arm.tolist() == arms.tolist()
        assert ds.unit_ids.dtype == StringDType() and ds.unit_ids is sealed.unit_ids
        assert ds.unit_ids.tolist() == [f"u{i:07d}" for i in range(5_000)]

    def test_peak_stays_below_twice_the_dataset_bytes(self):
        # x, the arms, the n x m outcomes and the signal x beta' are held at
        # once: 1.42 times the dataset's per-row arrays (ids at 16 bytes
        # each, inline). Building Y as h + noise_sd * normal, with the ids
        # a list of str of 57 bytes each, peaked at 2.44 times
        dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.5, intercepts=(0.0, 0.1, 0.2), noise_sd=0.3)
        peak = _traced_peak(lambda: generate_synthetic(dgp, n=50_000, seed=11))
        ds, _ = generate_synthetic(dgp, n=50_000, seed=11)
        fields = ("x", "unit_ids", "arm", "outcome", "propensity")
        size = sum(getattr(ds, name).nbytes for name in fields)
        assert size == 50_000 * (8 * 4 + 16 + 3 * 8)
        assert peak < 2.0 * size, (peak, size)

    def test_deterministic_in_seed(self):
        dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.4, intercepts=[0.0] * 3, noise_sd=0.2)
        a1, s1 = generate_synthetic(dgp, n=100, seed=42)
        a2, s2 = generate_synthetic(dgp, n=100, seed=42)
        b, _ = generate_synthetic(dgp, n=100, seed=43)
        assert np.array_equal(a1.outcome, a2.outcome)
        assert np.array_equal(s1.y, s2.y)
        assert not np.array_equal(a1.outcome, b.outcome)


class TestRerandomize:
    def test_swaps_assignment_but_not_units(self):
        dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.4, intercepts=[0.0] * 3, noise_sd=0.2)
        ds, sealed = generate_synthetic(dgp, n=2_000, seed=5)
        re = rerandomize_assignment(ds, sealed, seed=99)
        assert re.unit_ids.tolist() == ds.unit_ids.tolist()
        assert np.array_equal(re.x, ds.x)
        assert not np.array_equal(re.arm, ds.arm)
        assert np.array_equal(re.outcome, sealed.y[np.arange(ds.n), re.arm])

    def test_propensities_become_uniform_on_any_design(self):
        # the new arms are drawn uniformly, so every propensity is 1/m: on a
        # 0.25/0.75 design and (the same bits as before) on a uniform one
        n = 40
        arm = np.array([0] * 10 + [1] * 30)
        unequal = dict(
            unit_ids=tuple(f"u{i}" for i in range(n)),
            x=np.column_stack([np.arange(n, dtype=float), np.arange(n) % 2]),
            arm=arm,
            outcome=np.arange(n, dtype=float),
            propensity=np.where(arm == 0, 0.25, 0.75),
        )
        sealed = SealedOutcomes(np.arange(2 * n, dtype=float).reshape(n, 2), unequal["unit_ids"])
        for ds in (tiny_dataset(**unequal),
                   tiny_dataset(**{**unequal, "propensity": np.full(n, 0.5)})):
            for seed in range(5):
                re = rerandomize_assignment(ds, sealed, seed=seed)
                assert np.array_equal(re.propensity, np.full(n, 0.5))

    def test_rejects_arrays_numpy_cannot_address(self):
        dgp = one_factor_dgp(m=2, sigma=0.3, rho=0.4, intercepts=[0.0] * 2, noise_sd=0.2)
        with pytest.raises(ConfigError, match="n x m"):
            generate_synthetic(dgp, n=2**62, seed=0)
        # p = 3 covariates: 8 * n * 2 bytes fit numpy's index range, 8 * n * 3 do not
        with pytest.raises(ConfigError, match="n x p"):
            generate_synthetic(dgp, n=4 * 10**17, seed=0)

    def test_rejects_foreign_sealed_matrix(self):
        dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.4, intercepts=[0.0] * 3, noise_sd=0.2)
        ds, sealed = generate_synthetic(dgp, n=50, seed=5)
        other = SealedOutcomes(np.zeros((50, 3)), tuple(f"z{i}" for i in range(50)))
        with pytest.raises(ConfigError, match="sealed"):
            rerandomize_assignment(ds, other, seed=1)
        # the same units in another order, and a subset of them, are foreign too
        for foreign in (ds.subset(np.arange(50)[::-1]), ds.subset(np.arange(49))):
            with pytest.raises(ConfigError, match="sealed"):
                rerandomize_assignment(foreign, sealed, seed=1)


class TestSplit:
    def test_global_size_is_rounded_target(self):
        ds = tiny_dataset(
            unit_ids=tuple(f"u{i}" for i in range(10)),
            x=np.arange(20, dtype=float).reshape(10, 2) % 2,
            arm=np.array([0, 1] * 5),
            outcome=np.arange(10, dtype=float),
            propensity=np.full(10, 0.5),
        )
        sp = split(ds, train_fraction=0.7, seed=0)
        assert sp.train_idx.size == 7 and sp.test_idx.size == 3

    def test_partition_is_disjoint_and_complete(self):
        dgp = one_factor_dgp(m=4, sigma=0.3, rho=0.5, intercepts=[0.0] * 4, noise_sd=0.2)
        ds, _ = generate_synthetic(dgp, n=1_003, seed=1)
        sp = split(ds, train_fraction=0.6, seed=3)
        both = np.concatenate([sp.train_idx, sp.test_idx])
        assert np.array_equal(np.sort(both), np.arange(ds.n))
        assert sp.train_idx.size == round(0.6 * ds.n)

    def test_each_arm_within_one_of_proportional_share(self):
        dgp = one_factor_dgp(m=5, sigma=0.3, rho=0.5, intercepts=[0.0] * 5, noise_sd=0.2)
        ds, _ = generate_synthetic(dgp, n=777, seed=8)
        sp = split(ds, train_fraction=0.7, seed=2)
        train_arm = ds.arm[sp.train_idx]
        for a in range(5):
            got = int((train_arm == a).sum())
            share = 0.7 * int((ds.arm == a).sum())
            assert abs(got - share) <= 1.0

    def test_deterministic_and_seed_sensitive(self):
        dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.5, intercepts=[0.0] * 3, noise_sd=0.2)
        ds, _ = generate_synthetic(dgp, n=400, seed=1)
        a = split(ds, 0.5, seed=10)
        b = split(ds, 0.5, seed=10)
        c = split(ds, 0.5, seed=11)
        assert np.array_equal(a.train_idx, b.train_idx)
        assert not np.array_equal(a.train_idx, c.train_idx)

    def test_rejects_degenerate_fractions(self):
        ds = tiny_dataset()
        with pytest.raises(ConfigError, match=r"\(0, 1\)"):
            split(ds, 0.0, seed=0)
        with pytest.raises(ConfigError, match=r"\(0, 1\)"):
            split(ds, 1.0, seed=0)

    def test_rejects_fraction_that_empties_a_side(self):
        ds = tiny_dataset()
        with pytest.raises(ConfigError, match="empty side"):
            split(ds, 0.05, seed=0)  # round(0.2) == 0


class TestCsvRoundTrip:
    def test_fuzz_round_trips_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2024)
        for trial in range(25):
            m = int(rng.integers(2, 5))
            # every arm observed: load_csv names the arms the file holds
            n = int(rng.integers(m, 40))
            p = int(rng.integers(0, 4))
            scale = 10.0 ** rng.integers(-250, 250)
            x = rng.standard_normal((n, p)) * scale
            ds = ExperimentDataset(
                unit_ids=tuple(f"id,{i}\"q" if i == 0 else f"id{i}" for i in range(n)),
                x=x,
                arm=rng.permutation(np.arange(n) % m),
                outcome=rng.standard_normal(n) * scale,
                propensity=np.full(n, 1.0 / m),
                arm_names=tuple(f"arm{a}" for a in range(m)),
                covariate_names=tuple(f"c{j}" for j in range(p)),
            )
            path = tmp_path / f"rt_{trial}.csv"
            write_csv(ds, path)
            back = load_csv(path)
            assert back.unit_ids.tolist() == ds.unit_ids.tolist()
            assert np.array_equal(back.x, ds.x)
            assert np.array_equal(back.arm, ds.arm)
            assert np.array_equal(back.outcome, ds.outcome)
            assert np.array_equal(back.propensity, ds.propensity)

    def test_gzip_round_trip(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "data.csv.gz"
        write_csv(ds, path)
        with gzip.open(path, "rt") as fh:
            assert fh.readline().startswith("unit_id,arm,outcome,propensity")
        back = load_csv(path)
        assert np.array_equal(back.outcome, ds.outcome)

    def test_gzip_write_failing_midway_leaves_no_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_csv(tiny_dataset(), tmp_path / "data.csv.gz")
        assert list(tmp_path.iterdir()) == []

    def test_gzip_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv.gz", tmp_path / "b.csv.gz"
        write_csv(tiny_dataset(), a)
        write_csv(tiny_dataset(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_load_rejects_bytes_that_are_not_utf8_or_gzip(self, tmp_path):
        good = tmp_path / "good.csv"
        write_csv(tiny_dataset(), good)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(good.read_bytes().replace(b"treat", b"tr\xffat", 1))
        with pytest.raises(ParseError, match="bad.csv is not UTF-8"):
            load_csv(bad)
        fake = tmp_path / "fake.csv.gz"
        fake.write_bytes(good.read_bytes())
        with pytest.raises(ParseError, match="fake.csv.gz"):
            load_csv(fake)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_preserves_every_column_bit_for_bit(self, tmp_path_factory, data):
        m = data.draw(st.integers(2, 4), label="m")
        n = data.draw(st.integers(m, 12), label="n")
        p = data.draw(st.integers(0, 3), label="p")
        finite = st.floats(allow_nan=False, allow_infinity=False)

        def column(size, elements):
            return np.array(data.draw(st.lists(elements, min_size=size, max_size=size)))

        # a randomized design: one propensity per arm, summing to one, and
        # every arm observed, since load_csv names the arms the file holds
        weights = column(m, st.floats(min_value=1e-3, max_value=1.0))
        arm = np.concatenate([np.arange(m), column(n - m, st.integers(0, m - 1))]).astype(int)
        names = st.lists(st.text(), min_size=m, max_size=m, unique=True)
        ds = ExperimentDataset(
            unit_ids=tuple(data.draw(st.lists(st.text(), min_size=n, max_size=n), label="ids")),
            x=column(n * p, finite).reshape(n, p),
            arm=arm,
            outcome=column(n, finite),
            propensity=(weights / weights.sum())[arm],
            arm_names=tuple(data.draw(names, label="arm names")),
            covariate_names=tuple(f"c{j}" for j in range(p)),
        )
        path = tmp_path_factory.mktemp("rt") / data.draw(st.sampled_from(["d.csv", "d.csv.gz"]))
        write_csv(ds, path)
        back = load_csv(path)
        assert back.unit_ids.tolist() == ds.unit_ids.tolist()
        assert back.arm_names == tuple(sorted(ds.arm_names))
        assert [back.arm_names[a] for a in back.arm] == [ds.arm_names[a] for a in ds.arm]
        for name in ("x", "outcome", "propensity"):
            assert getattr(back, name).tobytes() == getattr(ds, name).tobytes(), name

    def test_schema_free_load_infers_names_and_kinds(self, tmp_path):
        ds = tiny_dataset()
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        back = load_csv(path)
        assert back.arm_names == ("control", "treat")  # sorted distinct
        assert back.covariate_kinds == ("continuous", "binary")

    def test_load_reports_row_of_bad_propensity(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "unit_id,arm,outcome,propensity\n"
            "a,x,1.0,0.5\n"
            "b,y,2.0,0\n"
        )
        with pytest.raises(ParseError, match="row 2"):
            load_csv(path)

    def test_load_reports_row_of_non_numeric_outcome(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "unit_id,arm,outcome,propensity\n"
            "a,x,oops,0.5\n"
            "b,y,2.0,0.5\n"
        )
        with pytest.raises(ParseError, match="row 1.*outcome"):
            load_csv(path)

    def test_load_reports_row_width_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "unit_id,arm,outcome,propensity,c0\n"
            "a,x,1.0,0.5,0.1\n"
            "b,y,2.0,0.5\n"
        )
        with pytest.raises(ParseError, match="row 2.*cells"):
            load_csv(path)

    def test_load_rejects_empty_and_header_only(self, tmp_path):
        empty = tmp_path / "e.csv"
        empty.write_text("")
        with pytest.raises(ParseError, match="header"):
            load_csv(empty)
        header_only = tmp_path / "h.csv"
        header_only.write_text("unit_id,arm,outcome,propensity\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(header_only)

    def test_load_reports_the_first_fault_in_file_order(self, tmp_path):
        # row 1's value fails before row 2's oversized cell stops csv.reader
        path = tmp_path / "d.csv"
        path.write_text('unit_id,arm,outcome,propensity\n"a",x,oops,0.5\n'
                        + "u" * (csv.field_size_limit() + 1) + ",y,2,0.5\n")
        with pytest.raises(ParseError, match="row 1: column 'outcome' has non-numeric value 'oops'"):
            load_csv(path)

    @pytest.mark.parametrize("covariates, repeated", [("x,x", "x"), ("arm", "arm")])
    def test_load_rejects_repeated_column_names(self, tmp_path, covariates, repeated):
        # a covariate may repeat another covariate or a fixed column; the
        # quoted copy goes through the row loop, the plain one does not
        cells = ",0.1" * len(covariates.split(","))
        for name, quote in (("plain.csv", ""), ("quoted.csv", '"')):
            path = tmp_path / name
            rows = "".join(f"{quote}u{i}{quote},{'ab'[i % 2]},1.0,0.5{cells}\n" for i in range(4))
            path.write_text(f"unit_id,arm,outcome,propensity,{covariates}\n{rows}")
            with pytest.raises(ConfigError, match=f"'{repeated}' appears more than once"):
                load_csv(path)


HEADER = "unit_id,arm,outcome,propensity\n"
FOUR_ROWS = "a,x,1,0.5\nb,y,2,0.5\na,x,3,0.5\nb,y,4,0.5\n"
# cells the C reader and float() may disagree on, or either may reject
NUMBER_CELLS = ["0.5", "1", "-0", "0", "1e500", "-1e500", "nan", "inf", "1e-320", "",
                " 1.5", "1.5 ", "\u20031.5\u2003", "1_0", "\u0661\u0662", "0x10", "+.5",
                "1.5.", "12345678901234567890123", "\x001", "1\x00"]
TEXT_ALPHABET = st.sampled_from(["a", "b", " ", ",", '"', "\r", "\n", "\x00", "#", "\x85",
                                 "\u2028", "\x1c", "\t"])


@st.composite
def csv_texts(draw):
    """CSV text that mostly holds a loadable two-arm dataset; each kind of
    edge (odd cells, quoting, blank lines, ragged rows, CRLF, no final
    newline, a broken header) turns up in a fraction of the examples."""

    def rarely(n=5):
        return draw(st.integers(0, n - 1)) == 0

    odd_text, odd_numbers = rarely(3), rarely(3)

    def text_cell():
        if odd_text and rarely(3):
            return draw(st.text(TEXT_ALPHABET, max_size=4))
        return draw(st.sampled_from(["a", "b", "u1", " b ", "#x", "b\x00", "a\x85"]))

    def number_cell():
        if odd_numbers and rarely(3):
            return draw(st.sampled_from(NUMBER_CELLS))
        return repr(draw(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                   st.sampled_from([0.0, 1.0]))))

    p = draw(st.integers(0, 2), label="p")
    header = ["unit_id", "arm", "outcome", "propensity"] + [f"c{j}" for j in range(p)]
    if rarely(10):
        header[draw(st.integers(0, len(header) - 1))] = draw(st.text(TEXT_ALPHABET, max_size=3))
    odd_design, ragged = rarely(3), rarely(8)
    rows = []
    for i in range(draw(st.integers(1, 6), label="rows")):
        row = [text_cell(), text_cell() if odd_design and rarely(3) else "ab"[i % 2]]
        row += [number_cell(), number_cell() if odd_design and rarely(3) else "0.5"]
        row += [number_cell() for _ in range(p)]
        if ragged and rarely(3):
            extra = draw(st.integers(0, 2))
            row = row[: draw(st.integers(0, len(row)))] + [number_cell() for _ in range(extra)]
        rows.append(row)
    quote = rarely(6)

    def line(cells):
        quoted = ('"' + c.replace('"', '""') + '"' if quote and rarely(2) else c for c in cells)
        return ",".join(quoted)

    lines = [line(header)] + [line(row) for row in rows]
    if rarely(8):
        lines.insert(draw(st.integers(1, len(lines))), "")
    ending = "\r\n" if rarely(8) else "\n"
    return ending.join(lines) + ("" if rarely(8) else ending)


def _outcome(load):
    """The loaded dataset, or the (class, message) of the input fault; any
    other exception, InternalError included, fails the test."""
    try:
        return load()
    except (ParseError, ConfigError) as exc:
        return type(exc), str(exc)


@pytest.fixture
def tokenizers(monkeypatch):
    """The tokenizers load_csv runs, in order: "loadtxt" for each block
    numpy's C reader parses, "rows from <row>" where the row loop starts."""
    calls = []
    loadtxt, row_tables = np.loadtxt, persgain.dataset._row_tables

    def spy_loadtxt(*args, **kwargs):
        calls.append("loadtxt")
        return loadtxt(*args, **kwargs)

    def spy_rows(rows, cov_names, first):
        calls.append(f"rows from {first}")
        return row_tables(rows, cov_names, first)

    monkeypatch.setattr(np, "loadtxt", spy_loadtxt)
    monkeypatch.setattr(persgain.dataset, "_row_tables", spy_rows)
    return calls


class TestColumnReader:
    """load_csv parses plain blocks column-wise with numpy's C reader and
    hands the rest of the file to the csv-module row loop (_load_rows) at
    the first block the C reader turns down; the row loop, read from row 1,
    is the reference it must match."""

    # block_rows None keeps the module's block size; with 2 or 3 the later
    # rows of a drawn text, and the fault in each later-block example, lie
    # past the first block
    @settings(max_examples=400, deadline=None)
    @given(text=csv_texts(), block_rows=st.sampled_from([None, 2, 3]))
    # float() takes 1_0, the C reader not
    @example(text=HEADER + "a,x,1_0,0.5\nb,y,2,0.5\n", block_rows=None)
    @example(text=HEADER + "a,x,1,0.5\r\nb,y,2,0.5\r\n", block_rows=None)
    # the C reader skips a blank line
    @example(text=HEADER + "a,x,1,0.5\n\nb,y,2,0.5\n", block_rows=None)
    @example(text=HEADER + "a,x,1,0.5\nb,y,2,0.5", block_rows=None)
    @example(text=HEADER + "u" * (csv.field_size_limit() + 1) + ",x,1,0.5\nb,y,2,0.5\n", block_rows=None)
    @example(text=HEADER + FOUR_ROWS + "\nc,y,2,0.5\n", block_rows=2)
    @example(text=HEADER + FOUR_ROWS + "\n", block_rows=3)
    @example(text=HEADER + FOUR_ROWS + '"c",y,2,0.5\n', block_rows=2)
    @example(text=HEADER + FOUR_ROWS + '"c,y",y,2,0.5\n', block_rows=3)
    @example(text=HEADER + FOUR_ROWS + "c,y,2,0.5\r\n", block_rows=2)
    @example(text=HEADER + FOUR_ROWS + "u" * (csv.field_size_limit() + 1) + ",y,2,0.5\n", block_rows=2)
    @example(text=HEADER + FOUR_ROWS + "c,y,inf,0.5\n", block_rows=2)
    @example(text=HEADER + FOUR_ROWS + "c,y,nan,0.5\n", block_rows=3)
    @example(text=HEADER + FOUR_ROWS + "c,y,2,0\n", block_rows=2)
    @example(text=HEADER + FOUR_ROWS + "c,y,2,-0.5\n", block_rows=3)
    @example(text=HEADER + FOUR_ROWS + "c,y,2,0.5,9\n", block_rows=2)
    @example(text=HEADER + FOUR_ROWS + "c,y,1_0,0.5\n", block_rows=3)
    @example(text=HEADER + FOUR_ROWS + "c,z,2,0.5\nd,w,2,0.5\n", block_rows=2)  # arms first seen late
    def test_matches_the_row_loop_bit_for_bit(self, tmp_path_factory, text, block_rows):
        path = tmp_path_factory.mktemp("diff") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as patch:
            if block_rows is not None:
                patch.setattr(persgain._util, "BLOCK_ROWS", block_rows)
            fast = _outcome(lambda: load_csv(path))
        rows = _outcome(lambda: persgain.dataset._load_rows(io.StringIO(text, newline=""), path))
        if isinstance(rows, tuple):
            assert fast == rows
            return
        assert isinstance(fast, ExperimentDataset), fast
        assert fast.unit_ids.tolist() == rows.unit_ids.tolist()
        assert fast.arm_names == rows.arm_names
        assert fast.covariate_names == rows.covariate_names
        assert fast.covariate_kinds == rows.covariate_kinds
        for name in ("x", "arm", "outcome", "propensity"):
            mine, reference = getattr(fast, name), getattr(rows, name)
            assert mine.dtype == reference.dtype and mine.shape == reference.shape, name
            assert mine.tobytes() == reference.tobytes(), name
        # each row's arm names its own label, checked without the readers'
        # label-to-index mapping
        labels = [row[1] for row in list(csv.reader(io.StringIO(text, newline="")))[1:]]
        assert [fast.arm_names[a] for a in fast.arm] == labels

    def test_written_files_take_the_column_path(self, tmp_path, monkeypatch):
        # 300 rows in blocks of 7: 42 full blocks, then 6 rows
        monkeypatch.setattr(persgain._util, "BLOCK_ROWS", 7)
        dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.5, intercepts=(0.0, 0.1, 0.2), noise_sd=0.3)
        ds, _ = generate_synthetic(dgp, n=300, seed=5)
        path = tmp_path / "d.csv"
        write_csv(ds, path)

        def no_row_loop(*args, **kwargs):
            raise AssertionError("the csv-module row loop ran")

        monkeypatch.setattr(persgain.dataset.csv, "reader", no_row_loop)
        back = load_csv(path)
        assert back.unit_ids.tolist() == ds.unit_ids.tolist()
        assert back.arm_names == ds.arm_names and back.arm.tobytes() == ds.arm.tobytes()
        for name in ("x", "outcome", "propensity"):
            assert getattr(back, name).tobytes() == getattr(ds, name).tobytes(), name
        # a quoted arm name needs the row loop
        quoted = tiny_dataset(arm_names=("a,b", "treat"))
        write_csv(quoted, tmp_path / "q.csv")
        with pytest.raises(AssertionError, match="row loop ran"):
            load_csv(tmp_path / "q.csv")
        monkeypatch.undo()
        assert load_csv(tmp_path / "q.csv").arm_names == ("a,b", "treat")

    def test_columns_grow_by_a_quarter_at_least(self, tmp_path, monkeypatch):
        # 600 rows in blocks of 2: a resize per block would make 300
        monkeypatch.setattr(persgain._util, "BLOCK_ROWS", 2)
        dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.5, intercepts=(0.0, 0.1, 0.2), noise_sd=0.3)
        ds, _ = generate_synthetic(dgp, n=600, seed=5)
        write_csv(ds, tmp_path / "d.csv")
        sizes = []
        resize = persgain.dataset._resize

        def recorded(columns, rows):
            sizes.append(rows)
            resize(columns, rows)

        monkeypatch.setattr(persgain.dataset, "_resize", recorded)
        back = load_csv(tmp_path / "d.csv")
        assert sizes[-1] == 600 and len(sizes) < 40, sizes
        assert all(later >= earlier + earlier // 4 for earlier, later in zip(sizes[:-2], sizes[1:-1])), sizes
        assert back.arm.tobytes() == ds.arm.tobytes()
        assert back.x.tobytes() == ds.x.tobytes() and back.x.flags.c_contiguous

    @pytest.mark.parametrize("name", ["d.csv", "d.csv.gz"])
    def test_skips_a_leading_byte_order_mark(self, tmp_path, tokenizers, name):
        dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.5, intercepts=(0.0, 0.1, 0.2), noise_sd=0.3)
        ds, _ = generate_synthetic(dgp, n=300, seed=5)
        plain = tmp_path / "plain.csv"
        write_csv(ds, plain)
        marked = tmp_path / name
        opener = gzip.open if name.endswith(".gz") else open
        with opener(marked, "wb") as fh:
            fh.write(b"\xef\xbb\xbf" + plain.read_bytes())
        back, reference = load_csv(marked), load_csv(plain)
        assert tokenizers == ["loadtxt", "loadtxt"]  # the column path only
        assert back.unit_ids.tolist() == reference.unit_ids.tolist()
        assert back.arm_names == reference.arm_names
        assert back.covariate_names == reference.covariate_names
        for field in ("x", "arm", "outcome", "propensity"):
            assert getattr(back, field).tobytes() == getattr(reference, field).tobytes(), field

    @pytest.mark.parametrize("form", ["quoted", "crlf"])
    def test_a_later_block_hands_the_rest_of_the_file_to_the_row_loop(self, tmp_path, monkeypatch,
                                                                      tokenizers, form):
        # 300 rows in blocks of 7: row 200, quoted or CRLF-ended, lies in the
        # 29th block, which starts at row 197
        monkeypatch.setattr(persgain._util, "BLOCK_ROWS", 7)
        ds, path = _synthetic_file(tmp_path, n=300)
        lines = path.read_text().splitlines(keepends=True)
        uid, rest = lines[200].split(",", 1)
        lines[200] = f'"{uid}",{rest}' if form == "quoted" else lines[200].replace("\n", "\r\n")
        path.write_bytes("".join(lines).encode())
        back = load_csv(path)
        assert tokenizers == ["loadtxt"] * 28 + ["rows from 197"]
        reference = persgain.dataset._load_rows(io.StringIO("".join(lines), newline=""), path)
        for expected in (reference, ds):
            assert back.unit_ids.tolist() == expected.unit_ids.tolist()
            assert back.arm_names == expected.arm_names
            assert back.covariate_names == expected.covariate_names
            for field in ("x", "arm", "outcome", "propensity"):
                assert getattr(back, field).tobytes() == getattr(expected, field).tobytes(), field

    @pytest.mark.parametrize("quoted_row, handoff", [(200, "rows from 197"), (None, "rows from 246")])
    def test_a_fault_past_the_handoff_names_its_row_from_the_start_of_the_file(
            self, tmp_path, monkeypatch, tokenizers, quoted_row, handoff):
        # the row loop takes over at the block holding row 200's quoted id,
        # or at the block holding row 250's bad outcome itself
        monkeypatch.setattr(persgain._util, "BLOCK_ROWS", 7)
        _, path = _synthetic_file(tmp_path, n=300)
        lines = path.read_text().splitlines(keepends=True)
        if quoted_row is not None:
            uid, rest = lines[quoted_row].split(",", 1)
            lines[quoted_row] = f'"{uid}",{rest}'
        cells = lines[250].split(",")
        lines[250] = ",".join(cells[:2] + ["oops"] + cells[3:])
        path.write_text("".join(lines))
        with pytest.raises(ParseError, match=r"^row 250: column 'outcome' has non-numeric value 'oops'$"):
            load_csv(path)
        assert tokenizers[-1] == handoff and tokenizers[:-1] == ["loadtxt"] * len(tokenizers[:-1])


def _synthetic_file(tmp_path, n, name="d.csv"):
    """A three-arm synthetic dataset of n rows, and the path it is written to."""
    dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.5, intercepts=(0.0, 0.1, 0.2), noise_sd=0.3)
    ds, _ = generate_synthetic(dgp, n=n, seed=5)
    path = tmp_path / name
    write_csv(ds, path)
    return ds, path


def _reference_csv(header, columns):
    rows = zip(*columns)
    lines = [",".join(csv_cell(v) for v in header)]
    lines += [",".join(csv_cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestCsvBytes:
    def test_columns_format_as_the_per_cell_reference(self, monkeypatch):
        rng = np.random.default_rng(7)
        floats = np.concatenate([rng.standard_normal(20) * 10.0 ** rng.integers(-300, 300, 20),
                                 [0.0, -0.0, 5e-324, 1e16, 1e-5, 0.1, 123456789.0, -1.5]])
        n = floats.size
        columns = [
            floats,
            range(n),
            [np.float64(v) for v in floats[::-1]],
            [(f'id,{i}"q\n', f"u{i}\r", f"u{i}")[i % 3] for i in range(n)],
            rng.standard_normal(n).astype(np.float32),
            np.arange(n),
            tuple(f"u{i:03d} #" for i in range(n)),
            ["plain"] * (n - 1) + [7],
        ]
        header = ["f", "i", "np", "text,quoted", "f32", "np_int", "text", "mixed"]
        for block_rows in (persgain._util.BLOCK_ROWS, 2, 3):
            monkeypatch.setattr(persgain._util, "BLOCK_ROWS", block_rows)
            chunks = list(csv_bytes(header, columns))
            assert b"".join(chunks) == _reference_csv(header, columns)
            # the header, then one chunk per block of rows
            assert len(chunks) == 1 + math.ceil(n / block_rows)

    def test_header_only_and_no_columns(self):
        assert b"".join(csv_bytes(["a", "b"], [[], []])) == b"a,b\n"
        assert b"".join(csv_bytes([], [])) == b"\n"

    def test_unequal_columns_raise(self, tmp_path):
        # before any byte is written: no temp file, the old file kept
        with pytest.raises(ValueError, match="equal lengths"):
            csv_bytes(["a", "b"], [np.zeros(3), [1, 2]])  # at the call, not at iteration
        path = tmp_path / "t.csv"
        path.write_bytes(b"kept\n")
        with pytest.raises(ValueError, match="equal lengths"):
            persgain._util.write_csv(path, ["a", "b"], [np.zeros(3), [1, 2]])
        assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("name", ["t.csv", "t.csv.gz"])
    def test_a_write_failing_partway_leaves_no_file(self, tmp_path, monkeypatch, name):
        monkeypatch.setattr(persgain._util, "BLOCK_ROWS", 2)
        started = []

        class Unprintable:
            def __str__(self):
                started.extend(tmp_path.glob(name + ".*.tmp"))  # the temp file is being written
                raise RuntimeError("cannot format")

        # the fourth row's id, in the second block, cannot be formatted
        ds = tiny_dataset()
        object.__setattr__(ds, "unit_ids", np.array(["a", "b", "c", Unprintable()], dtype=object))
        with pytest.raises(RuntimeError, match="cannot format"):
            write_csv(ds, tmp_path / name)
        assert started and list(tmp_path.iterdir()) == []
        started.clear()
        with pytest.raises(RuntimeError, match="cannot format"):
            persgain._util.write_csv(tmp_path / name, ["id"], [["a", "b", "c", Unprintable()]])
        assert started and list(tmp_path.iterdir()) == []

    def test_gzip_stream_is_one_shot_gzip_compress(self, tmp_path, monkeypatch):
        monkeypatch.setattr(persgain._util, "BLOCK_ROWS", 64)
        dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.5, intercepts=(0.0, 0.1, 0.2), noise_sd=0.3)
        ds, _ = generate_synthetic(dgp, n=1000, seed=5)
        write_csv(ds, tmp_path / "d.csv")
        write_csv(ds, tmp_path / "d.csv.gz")
        plain = (tmp_path / "d.csv").read_bytes()
        assert (tmp_path / "d.csv.gz").read_bytes() == gzip.compress(plain, mtime=0)
        write_csv(tiny_dataset(), tmp_path / "t.csv")
        write_csv(tiny_dataset(), tmp_path / "t.csv.gz")
        tiny = (tmp_path / "t.csv").read_bytes()
        assert (tmp_path / "t.csv.gz").read_bytes() == gzip.compress(tiny, mtime=0)

    @pytest.mark.parametrize("os_byte", [3, 255])
    def test_gzip_header_follows_this_pythons_gzip_compress(self, tmp_path, monkeypatch, os_byte):
        # gzip.compress(data, mtime=0) writes zlib's OS byte (3 on Unix) on
        # Python 3.11 and 3.12, and 255 on 3.10 and from 3.13
        one_shot = gzip.compress

        def compress(data, *args, **kwargs):
            out = bytearray(one_shot(data, *args, **kwargs))
            out[9] = os_byte
            return bytes(out)

        monkeypatch.setattr(gzip, "compress", compress)
        write_csv(tiny_dataset(), tmp_path / "t.csv")
        write_csv(tiny_dataset(), tmp_path / "t.csv.gz")
        written = (tmp_path / "t.csv.gz").read_bytes()
        assert written[9] == os_byte
        assert written == compress((tmp_path / "t.csv").read_bytes(), mtime=0)


def _traced_peak(action) -> int:
    """The most bytes traced by tracemalloc at once while action() runs,
    above what was allocated when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = action()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    del result
    return peak


class TestCsvMemory:
    """CSV goes through memory a block of rows at a time: writing holds less
    than the file's size at once, reading less than 2.5 times it, the
    parsed dataset included, through either tokenizer. Whole-file text held
    3.42 and 4.19 times on the C reader's path, and about 4 times on the row
    loop's."""

    @pytest.fixture(scope="class")
    def design(self):
        dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.5, intercepts=(0.0, 0.1, 0.2), noise_sd=0.3)
        ds, _ = generate_synthetic(dgp, n=50_000, seed=11)
        return ds

    @pytest.mark.parametrize("name", ["d.csv", "d.csv.gz"])
    def test_peaks_stay_below_a_multiple_of_the_text_size(self, tmp_path, design, name):
        plain = tmp_path / "plain.csv"
        write_csv(design, plain)
        size = plain.stat().st_size
        path = tmp_path / name
        write_peak = _traced_peak(lambda: write_csv(design, path))
        load_peak = _traced_peak(lambda: load_csv(path))
        assert write_peak < 1.0 * size, (write_peak, size)
        assert load_peak < 2.5 * size, (load_peak, size)
        back = load_csv(path)
        assert back.unit_ids.tolist() == design.unit_ids.tolist()
        assert back.arm.tobytes() == design.arm.tobytes()
        for field in ("x", "outcome", "propensity"):
            assert getattr(back, field).tobytes() == getattr(design, field).tobytes(), field

    @pytest.mark.parametrize("form", ["quoted", "crlf", "cr"])
    def test_the_row_loop_holds_below_2_5_times_the_file_size(self, tmp_path, design, form):
        # a quoted arm name or CRLF or CR-only line ends send the file through
        # the row loop, which holds one block of lines and of parsed rows at
        # a time; a CR-only file is read a line, not the whole file, at a time
        path = tmp_path / "d.csv"
        if form == "quoted":
            design = ExperimentDataset(**{**design.__dict__, "arm_names": ("a,0", "a,1", "a,2")})
            write_csv(design, path)
        else:
            write_csv(design, path)
            end = b"\r\n" if form == "crlf" else b"\r"
            path.write_bytes(path.read_bytes().replace(b"\n", end))
        size = path.stat().st_size
        load_peak = _traced_peak(lambda: load_csv(path))
        assert load_peak < 2.5 * size, (load_peak, size)
        back = load_csv(path)
        assert back.arm_names == design.arm_names
        assert back.unit_ids.tolist() == design.unit_ids.tolist()
        assert back.arm.tobytes() == design.arm.tobytes()
        for field in ("x", "outcome", "propensity"):
            assert getattr(back, field).tobytes() == getattr(design, field).tobytes(), field


class TestCsvErrorsPastTheFirstBlock:
    """A fault the block reader meets late is reported by its offset in the
    whole file, or as an unreadable file; of several faults, the first in
    file order is reported."""

    def test_a_bad_byte_is_reported_at_its_offset_in_the_file(self, tmp_path):
        dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.5, intercepts=(0.0, 0.1, 0.2), noise_sd=0.3)
        ds, _ = generate_synthetic(dgp, n=3000, seed=5)
        path = tmp_path / "d.csv"
        write_csv(ds, path)
        data = bytearray(path.read_bytes())
        assert len(data) > 2 * 150_001
        data[150_001] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ParseError, match=r"d\.csv is not UTF-8 text: byte 150001 cannot be decoded"):
            load_csv(path)

    def test_a_gzip_file_cut_after_its_first_block_is_unreadable(self, tmp_path, monkeypatch):
        monkeypatch.setattr(persgain._util, "BLOCK_ROWS", 100)
        dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.5, intercepts=(0.0, 0.1, 0.2), noise_sd=0.3)
        ds, _ = generate_synthetic(dgp, n=3000, seed=5)
        path = tmp_path / "d.csv.gz"
        write_csv(ds, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with gzip.open(path, "rt") as fh:  # the first blocks still decompress
            assert len([fh.readline() for _ in range(301)][-1]) > 0
        with pytest.raises(ParseError, match=r"d\.csv\.gz is not a readable CSV file"):
            load_csv(path)

    @pytest.mark.parametrize("block_rows", [None, 100])
    def test_a_bad_cell_before_a_bad_byte_is_reported(self, tmp_path, monkeypatch, block_rows):
        # in blocks of 4096 rows both faults lie in one block; in blocks of
        # 100, twenty blocks apart
        if block_rows is not None:
            monkeypatch.setattr(persgain._util, "BLOCK_ROWS", block_rows)
        _, path = _synthetic_file(tmp_path, n=3000)
        lines = path.read_bytes().split(b"\n")
        lines[10] = _with_bad_outcome(lines[10])
        lines[2000] = lines[2000][:3] + b"\xff" + lines[2000][4:]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ParseError, match=r"^row 10: column 'outcome' has non-numeric value 'oops'$"):
            load_csv(path)

    @pytest.mark.parametrize("block_rows", [None, 100])
    def test_a_bad_byte_before_a_bad_cell_is_reported_at_its_offset(self, tmp_path, monkeypatch,
                                                                     block_rows):
        if block_rows is not None:
            monkeypatch.setattr(persgain._util, "BLOCK_ROWS", block_rows)
        _, path = _synthetic_file(tmp_path, n=3000)
        lines = path.read_bytes().split(b"\n")
        lines[10] = lines[10][:3] + b"\xff" + lines[10][4:]
        lines[2000] = _with_bad_outcome(lines[2000])
        path.write_bytes(b"\n".join(lines))
        offset = len(b"\n".join(lines[:10])) + 1 + 3
        with pytest.raises(ParseError, match=rf"d\.csv is not UTF-8 text: byte {offset} cannot be decoded$"):
            load_csv(path)

    def test_a_bad_cell_before_a_cut_in_a_gzip_stream_is_reported(self, tmp_path, monkeypatch):
        monkeypatch.setattr(persgain._util, "BLOCK_ROWS", 100)
        _, plain = _synthetic_file(tmp_path, n=3000)
        lines = plain.read_bytes().split(b"\n")
        lines[10] = _with_bad_outcome(lines[10])
        data = gzip.compress(b"\n".join(lines), mtime=0)
        path = tmp_path / "d.csv.gz"
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ParseError, match=r"^row 10: column 'outcome' has non-numeric value 'oops'$"):
            load_csv(path)


def _with_bad_outcome(line: bytes) -> bytes:
    cells = line.split(b",")
    return b",".join(cells[:2] + [b"oops"] + cells[3:])
