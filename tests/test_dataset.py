import csv
import gzip
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import persgain.dataset
from persgain._util import csv_bytes, csv_cell
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
from persgain.errors import ConfigError, DomainError, ParseError, PersgainError


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
        with pytest.raises(DomainError, match=r"\(0, 1\]"):
            tiny_dataset(propensity=np.array([0.5, 0.5, 0.0, 0.5]))
        with pytest.raises(DomainError, match=r"\(0, 1\]"):
            tiny_dataset(propensity=np.array([0.5, 0.5, 1.5, 0.5]))

    def test_randomized_design_needs_constant_arm_propensity(self):
        with pytest.raises(DomainError, match="single propensity per arm"):
            tiny_dataset(propensity=np.array([0.5, 0.5, 0.4, 0.6]))

    def test_randomized_design_propensities_must_sum_to_one(self):
        with pytest.raises(DomainError, match="sum to"):
            tiny_dataset(propensity=np.array([0.5, 0.4, 0.5, 0.4]))

    def test_sum_check_skipped_when_an_arm_is_unobserved(self):
        # a subset can lose an arm; per-arm constancy is still checkable but
        # the sum across arms is not
        ds = tiny_dataset().subset([0, 2])
        assert ds.n == 2
        assert set(ds.arm.tolist()) == {0}

    def test_rejects_nonfinite_outcome(self):
        with pytest.raises(DomainError, match="finite"):
            tiny_dataset(outcome=np.array([1.0, math.inf, 3.0, 4.0]))

    def test_rejects_bad_arm_index(self):
        with pytest.raises(DomainError, match="arm indices"):
            tiny_dataset(arm=np.array([0, 1, 2, 1]))

    def test_rejects_duplicate_arm_names(self):
        with pytest.raises(DomainError, match="'treat' appears more than once"):
            tiny_dataset(arm=np.array([0, 1, 2, 1]), propensity=np.full(4, 1 / 3),
                         arm_names=("control", "treat", "treat"))

    def test_arrays_are_read_only(self):
        ds = tiny_dataset()
        with pytest.raises(ValueError):
            ds.outcome[0] = 99.0


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
        assert ds.unit_ids == sealed.unit_ids
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
        assert re.unit_ids == ds.unit_ids
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
        ds, _ = generate_synthetic(dgp, n=50, seed=5)
        other = SealedOutcomes(np.zeros((50, 3)), tuple(f"z{i}" for i in range(50)))
        with pytest.raises(DomainError, match="sealed"):
            rerandomize_assignment(ds, other, seed=1)


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
        with pytest.raises(DomainError, match=r"\(0, 1\)"):
            split(ds, 0.0, seed=0)
        with pytest.raises(DomainError, match=r"\(0, 1\)"):
            split(ds, 1.0, seed=0)

    def test_rejects_fraction_that_empties_a_side(self):
        ds = tiny_dataset()
        with pytest.raises(DomainError, match="empty side"):
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
            assert back.unit_ids == ds.unit_ids
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
        assert back.unit_ids == ds.unit_ids
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


HEADER = "unit_id,arm,outcome,propensity\n"
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
    try:
        return load()
    except PersgainError as exc:
        return type(exc), str(exc)


class TestColumnReader:
    """load_csv parses plain files column-wise with numpy's C reader; the
    csv-module row loop (_load_rows) is the reference it must match."""

    @settings(max_examples=400, deadline=None)
    @given(text=csv_texts())
    @example(text=HEADER + "a,x,1_0,0.5\nb,y,2,0.5\n")  # float() takes 1_0, the C reader not
    @example(text=HEADER + "a,x,1,0.5\r\nb,y,2,0.5\r\n")
    @example(text=HEADER + "a,x,1,0.5\n\nb,y,2,0.5\n")  # the C reader skips a blank line
    @example(text=HEADER + "a,x,1,0.5\nb,y,2,0.5")
    @example(text=HEADER + "u" * (csv.field_size_limit() + 1) + ",x,1,0.5\nb,y,2,0.5\n")
    def test_matches_the_row_loop_bit_for_bit(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("diff") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        fast = _outcome(lambda: load_csv(path))
        rows = _outcome(lambda: persgain.dataset._load_rows(text, path))
        if isinstance(rows, tuple):
            assert fast == rows
            return
        assert isinstance(fast, ExperimentDataset), fast
        assert fast.unit_ids == rows.unit_ids
        assert fast.arm_names == rows.arm_names
        assert fast.covariate_names == rows.covariate_names
        assert fast.covariate_kinds == rows.covariate_kinds
        for name in ("x", "arm", "outcome", "propensity"):
            mine, reference = getattr(fast, name), getattr(rows, name)
            assert mine.dtype == reference.dtype and mine.shape == reference.shape, name
            assert mine.tobytes() == reference.tobytes(), name

    def test_written_files_take_the_column_path(self, tmp_path, monkeypatch):
        dgp = one_factor_dgp(m=3, sigma=0.3, rho=0.5, intercepts=(0.0, 0.1, 0.2), noise_sd=0.3)
        ds, _ = generate_synthetic(dgp, n=300, seed=5)
        path = tmp_path / "d.csv"
        write_csv(ds, path)

        def no_row_loop(*args, **kwargs):
            raise AssertionError("the csv-module row loop ran")

        monkeypatch.setattr(persgain.dataset.csv, "reader", no_row_loop)
        back = load_csv(path)
        assert back.unit_ids == ds.unit_ids
        assert back.x.tobytes() == ds.x.tobytes()
        # a quoted arm name needs the row loop
        quoted = tiny_dataset(arm_names=("a,b", "treat"))
        write_csv(quoted, tmp_path / "q.csv")
        with pytest.raises(AssertionError, match="row loop ran"):
            load_csv(tmp_path / "q.csv")
        monkeypatch.undo()
        assert load_csv(tmp_path / "q.csv").arm_names == ("a,b", "treat")


def _reference_csv(header, columns):
    rows = zip(*columns)
    lines = [",".join(csv_cell(v) for v in header)]
    lines += [",".join(csv_cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestCsvBytes:
    def test_columns_format_as_the_per_cell_reference(self):
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
        assert csv_bytes(header, columns) == _reference_csv(header, columns)

    def test_unequal_columns_raise(self):
        with pytest.raises(ValueError):
            csv_bytes(["a", "b"], [np.zeros(3), [1, 2]])
