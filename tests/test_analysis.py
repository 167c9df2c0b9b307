"""Verification metrics, score correlation, per-phone discriminability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonetrait.analysis import (
    FRATIO_HEADER,
    FRatioRow,
    compute_eer,
    compute_metrics,
    compute_min_dcf,
    explainability_correlation,
    export_explanation,
    f_ratio,
    labelled_scores,
    pearson_correlation,
    read_report,
    save_f_ratio,
    write_report,
)
from phonetrait.corpus import CMU_PHONES, NON_VERBAL, PhoneInventory
from phonetrait.errors import ConfigurationError, NumericGuardError
from phonetrait.scoring import ScoreTable

from _oracles import sweep_eer, sweep_min_dcf


def tiny_inventory():
    return PhoneInventory(CMU_PHONES[:3] + (NON_VERBAL,))


def random_scores(rng, n=40, separation=1.0):
    labels = np.array([1] * (n // 2) + [0] * (n - n // 2))
    scores = rng.normal(size=n) + separation * labels
    return scores, labels


def row(enroll="a", test="b", label=1, final=0.5, evidence=0.4, sims=None, n_phones=4):
    """One trial's ScoreTable cells; None marks an NA label, evidence or phone,
    and ``sims=None`` defines phone 0 alone, as the evidence, or no phone if
    the evidence is NA."""
    sims = [evidence] + [None] * (n_phones - 1) if sims is None else sims
    return (enroll, test, -1 if label is None else label, final,
            np.nan if evidence is None else evidence,
            [np.nan if v is None else v for v in sims])


def table(rows):
    enroll, test, labels, finals, evidences, sims = zip(*rows)
    return ScoreTable(list(enroll), list(test), labels, finals, evidences, np.array(sims))


class TestEer:
    def test_hand_case(self):
        scores = np.array([0.9, 0.7, 0.3, 0.6, 0.2, 0.1])
        labels = np.array([1, 1, 1, 0, 0, 0])
        eer, threshold = compute_eer(scores, labels)
        assert abs(eer - 1.0 / 3.0) < 1e-12
        assert threshold == 0.6

    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        eer, _ = compute_eer(scores, labels)
        assert eer == 0.0

    def test_identical_distributions(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        labels = np.array([1, 1, 0, 0])
        eer, _ = compute_eer(scores, labels)
        assert abs(eer - 0.5) < 1e-12

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_matches_sweep_oracle(self, seed, separation):
        rng = np.random.default_rng(seed)
        scores, labels = random_scores(rng, separation=separation)
        eer, threshold = compute_eer(scores, labels)
        oracle_eer, oracle_threshold = sweep_eer(scores.tolist(), labels.tolist())
        assert abs(eer - oracle_eer) < 1e-12
        assert abs(threshold - oracle_threshold) < 1e-12
        assert 0.0 <= eer <= 1.0

    def test_ties_accepted_together(self):
        # Three trials share the score 0.5; any threshold keeps them together.
        scores = np.array([0.5, 0.5, 0.9, 0.5, 0.1])
        labels = np.array([1, 1, 1, 0, 0])
        eer, threshold = compute_eer(scores, labels)
        oracle_eer, oracle_threshold = sweep_eer(scores.tolist(), labels.tolist())
        assert abs(eer - oracle_eer) < 1e-12
        assert abs(threshold - oracle_threshold) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(ConfigurationError, match="non-target"):
            compute_eer(np.array([0.5, 0.6]), np.array([1, 1]))


class TestMinDcf:
    def test_perfect_separation_is_zero(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        min_dcf, _ = compute_min_dcf(scores, labels, 0.01, 1.0, 1.0)
        assert min_dcf == 0.0

    def test_normalised_upper_bound(self):
        rng = np.random.default_rng(0)
        scores, labels = random_scores(rng, separation=0.0)
        min_dcf, _ = compute_min_dcf(scores, labels, 0.01, 1.0, 1.0)
        assert min_dcf <= 1.0 + 1e-12

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_sweep_oracle(self, seed):
        rng = np.random.default_rng(seed)
        scores, labels = random_scores(rng)
        min_dcf, threshold = compute_min_dcf(scores, labels, 0.01, 1.0, 1.0)
        oracle, oracle_threshold = sweep_min_dcf(scores.tolist(), labels.tolist())
        assert abs(min_dcf - oracle) < 1e-12
        assert abs(threshold - oracle_threshold) < 1e-12

    def test_cost_parameters_matter(self):
        rng = np.random.default_rng(1)
        scores, labels = random_scores(rng, separation=0.5)
        a, _ = compute_min_dcf(scores, labels, 0.01, 1.0, 1.0)
        b, _ = compute_min_dcf(scores, labels, 0.5, 1.0, 1.0)
        assert a != b

    def test_invalid_prior(self):
        with pytest.raises(ConfigurationError):
            compute_min_dcf(np.array([0.5, 0.4]), np.array([1, 0]), 0.0, 1.0, 1.0)


class TestScaleInvariance:
    def test_reject_all_point_survives_large_scores(self):
        # Above 2**53, max + 1.0 is the max again; the reject-all point must
        # still reject every trial, so normalised minDCF stays <= 1.
        labels = np.array([1, 1, 0, 0])
        small = np.array([3.0, 10.0, 2.0, 10.0])
        for scores in (small, small * 1e16):
            assert compute_min_dcf(scores, labels, 0.01, 1.0, 1.0)[0] == 1.0
            assert compute_eer(scores, labels)[0] == 0.5

    @given(st.integers(0, 2 ** 31 - 1),
           st.sampled_from([1e-300, 1e-16, 0.5, 3.0, 1e16, 2.0 ** 900]))
    @settings(max_examples=40, deadline=None)
    def test_positive_factor_keeps_eer_and_min_dcf(self, seed, factor):
        # Integer scores keep their order and ties under any positive factor,
        # so every operating point, and with them both metrics, must stay.
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.repeat([1, 0], [12, 15]))
        scores = rng.integers(-20, 20, size=labels.size).astype(np.float64)
        for metric in (compute_eer, lambda s, l: compute_min_dcf(s, l, 0.01, 1.0, 1.0)):
            assert metric(scores * factor, labels)[0] == metric(scores, labels)[0]

    @staticmethod
    def correlated_sets():
        # A correlation of about 0.70 over 4000 points.
        rng = np.random.default_rng(0)
        x = rng.normal(size=4000)
        return x, x + rng.normal(size=4000)

    def test_power_of_two_scale_keeps_the_correlation_bits(self):
        # An absolute guard on the product of the sums of squares called
        # these sets constant at a scale of 1e-8 and overflowed from 1e76 up.
        x, y = self.correlated_sets()
        r = pearson_correlation(x, y)
        assert 0.69 < r < 0.71
        for e in range(-300, 301, 25):
            assert pearson_correlation(np.ldexp(x, e), np.ldexp(y, e)) == r, e
            assert pearson_correlation(np.ldexp(x, e), y) == r, e

    @pytest.mark.parametrize("scale", [1e-8, 1e-3, 1e3, 1e8, 1e200])
    def test_any_scale_keeps_the_correlation(self, scale):
        x, y = self.correlated_sets()
        assert abs(pearson_correlation(x * scale, y * scale) - pearson_correlation(x, y)) < 1e-12

    @pytest.mark.parametrize("value", [12345.678, 1e8 / 3, 1.0, 5e-324, 1e-300, 1e300,
                                       -1.7976931348623157e308])
    def test_a_constant_set_has_no_correlation(self, value):
        # Rounding leaves x - x.mean() nonzero for many constants; only the
        # values themselves tell a constant set.
        x, _ = self.correlated_sets()
        for scale in (1.0, 2.0 ** -300, 1e-8, 1e8, 2.0 ** 300):
            constant = np.full(4000, value * scale)
            if not np.isfinite(constant[0]) or constant[0] == 0.0:
                continue
            for pair in ((constant, x), (x, constant)):
                with pytest.raises(NumericGuardError, match="constant score set"):
                    pearson_correlation(*pair)


class TestMetricsReport:
    def test_counts_and_fields(self):
        scores = np.array([0.9, 0.7, 0.3, 0.6, 0.2, 0.1])
        labels = np.array([1, 1, 1, 0, 0, 0])
        report = compute_metrics(scores, labels, 0.01, 1.0, 1.0)
        assert report.n_target == 3
        assert report.n_nontarget == 3
        assert abs(report.eer - 1.0 / 3.0) < 1e-12
        assert report.min_dcf <= 1.0

    def test_labelled_scores_filters(self):
        scores = table([
            row(label=1, final=0.9, evidence=0.8),
            row(label=None, final=0.7, evidence=0.6),
            row(label=0, final=0.2, evidence=None),
        ])
        finals, labels = labelled_scores(scores.final, scores.labels)
        assert finals.tolist() == [0.9, 0.2]
        assert labels.tolist() == [1, 0]
        evidences, labels = labelled_scores(scores.evidence, scores.labels)
        assert evidences.tolist() == [0.8]
        assert labels.tolist() == [1]


class TestPearson:
    def test_perfectly_linear(self):
        x = np.array([1.0, 2.0, 3.0])
        assert abs(pearson_correlation(x, 2 * x + 1) - 1.0) < 1e-12
        assert abs(pearson_correlation(x, -x) + 1.0) < 1e-12

    def test_matches_numpy(self):
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=30), rng.normal(size=30)
        assert abs(pearson_correlation(x, y) - np.corrcoef(x, y)[0, 1]) < 1e-12

    def test_constant_input_rejected(self):
        with pytest.raises(NumericGuardError):
            pearson_correlation(np.ones(5), np.arange(5.0))

    def test_too_few_points(self):
        with pytest.raises(NumericGuardError):
            pearson_correlation(np.array([1.0]), np.array([2.0]))

    def test_explainability_correlation_skips_undefined(self):
        scores = table([
            row(final=0.1, evidence=0.2),
            row(final=0.5, evidence=0.6),
            row(final=0.9, evidence=None),
            row(final=0.8, evidence=0.9),
        ])
        value = explainability_correlation(scores)
        expected = pearson_correlation(
            np.array([0.1, 0.5, 0.8]), np.array([0.2, 0.6, 0.9])
        )
        assert abs(value - expected) < 1e-12

    def test_explainability_needs_two_defined(self):
        with pytest.raises(NumericGuardError):
            explainability_correlation(table([row(evidence=None), row(evidence=None)]))


def fratio_rows(n_target=30, n_nontarget=30, target_sim=0.8, nontarget_sim=0.2,
                phones=(0, 1, 2), n_phones=4):
    rows = []
    for i in range(n_target):
        sims = [target_sim if p in phones else None for p in range(n_phones)]
        rows.append(row(f"e{i}", f"t{i}", 1, 0.9, target_sim, sims, n_phones))
    for i in range(n_nontarget):
        sims = [nontarget_sim if p in phones else None for p in range(n_phones)]
        rows.append(row(f"e{i}", f"x{i}", 0, 0.1, nontarget_sim, sims, n_phones))
    return rows


class TestFRatio:
    def test_constant_pools_give_exact_ratio(self):
        rows = f_ratio(table(fratio_rows()), tiny_inventory(), n_samples=10, seed=0)
        for r in rows[:3]:
            assert r.included
            assert r.within_mean == 0.8
            assert r.between_mean == 0.2
            assert abs(r.ratio - 4.0) < 1e-12
        assert not rows[3].included
        assert np.isnan(rows[3].ratio)
        assert rows[3].n_available == 0

    def test_small_pool_excluded_and_flagged(self):
        rows = f_ratio(table(fratio_rows(n_target=5)), tiny_inventory(), n_samples=10, seed=0)
        for r in rows[:3]:
            assert not r.included
            assert r.n_available == 5
            assert np.isnan(r.within_mean)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(8)
        rows = []
        for i in range(40):
            sims = [float(rng.uniform(0.5, 1.0)), float(rng.uniform(0, 0.5)), None, None]
            rows.append(row(f"e{i}", f"t{i}", 1, 0.9, 0.7, sims))
        for i in range(40):
            sims = [float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.5)), None, None]
            rows.append(row(f"e{i}", f"x{i}", 0, 0.1, 0.2, sims))
        scores = table(rows)
        a = f_ratio(scores, tiny_inventory(), n_samples=20, seed=3)
        b = f_ratio(scores, tiny_inventory(), n_samples=20, seed=3)
        c = f_ratio(scores, tiny_inventory(), n_samples=20, seed=4)
        for ra, rb in zip(a, b):
            assert (ra.within_mean, ra.between_mean, ra.ratio) == \
                   (rb.within_mean, rb.between_mean, rb.ratio)
        assert a[0].within_mean != c[0].within_mean

    def test_phone_streams_are_independent(self):
        # Shrinking phone 2's pool below the draw count must not change the
        # other phones' resampled statistics.
        full = f_ratio(table(fratio_rows()), tiny_inventory(), n_samples=10, seed=0)
        fewer = table(fratio_rows())
        fewer.similarity[:25, 2] = np.nan
        partial = f_ratio(fewer, tiny_inventory(), n_samples=10, seed=0)
        assert not partial[2].included
        for i in (0, 1):
            assert partial[i].within_mean == full[i].within_mean
            assert partial[i].between_mean == full[i].between_mean

    def test_unlabelled_records_ignored(self):
        rows = fratio_rows() + [row("u", "v", None, 0.5, 0.5, [0.9, 0.9, 0.9, 0.9])]
        rows = f_ratio(table(rows), tiny_inventory(), n_samples=10, seed=0)
        assert rows[0].within_mean == 0.8

    def test_no_pools_anywhere_rejected(self):
        with pytest.raises(ConfigurationError, match="no phone"):
            f_ratio(table([row(evidence=None)]), tiny_inventory(), n_samples=5, seed=0)

    def test_round_trip(self, tmp_path):
        rows = f_ratio(table(fratio_rows()), tiny_inventory(), n_samples=10, seed=0)
        path = tmp_path / "fratio.csv"
        save_f_ratio(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == FRATIO_HEADER
        assert lines[4] == f"{NON_VERBAL},NA,NA,NA,0"
        # Each value is its repr, which float() reads back exactly.
        assert lines[1:4] == [f"{r.phone},{r.within_mean!r},{r.between_mean!r},{r.ratio!r},1"
                              for r in rows[:3]]
        for r, line in zip(rows[:3], lines[1:4]):
            assert [float(cell) for cell in line.split(",")[1:4]] == [
                r.within_mean, r.between_mean, r.ratio]

    def test_load_accepts_inf_ratio(self, tmp_path):
        # f_ratio gives inf when the between-speaker mean is exactly 0; the
        # table holds ``inf``, which float() reads back.
        path = tmp_path / "fratio.csv"
        save_f_ratio([FRatioRow("AA", 0.5, 0.0, np.inf, 600, True)], path)
        assert path.read_text() == FRATIO_HEADER + "\nAA,0.5,0.0,inf,1\n"
        assert float(path.read_text().split(",")[-2]) == np.inf


class TestExplanationFile:
    def test_round_trip(self, tmp_path):
        scores = table([row("x", "y", 0, 0.1, 0.2, [0.1, None, None, None]),
                        row(sims=[0.5, None, -0.25, 1.0])])
        path = tmp_path / "explanation.txt"
        export_explanation(scores, 1, tiny_inventory(), path)
        # Every value is its repr, which float() reads back exactly.
        assert path.read_text() == (
            "enroll a\ntest b\nlabel 1\nfinal 0.5\nevidence 0.4\n"
            f"trait\tAA\t0.5\ntrait\t{CMU_PHONES[1]}\tNA\n"
            f"trait\t{CMU_PHONES[2]}\t-0.25\ntrait\t{NON_VERBAL}\t1.0\n"
        )

    def test_file_shape(self, tmp_path):
        scores = table([row(label=None, evidence=0.5, sims=[0.5, None, None, None])])
        path = tmp_path / "explanation.txt"
        export_explanation(scores, 0, tiny_inventory(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "enroll a"
        assert lines[2] == "label NA"
        assert lines[4] == "evidence 0.5"
        assert lines[5] == "trait\tAA\t0.5"
        assert lines[6] == f"trait\t{CMU_PHONES[1]}\tNA"
        assert len(lines) == 5 + 4

    @pytest.mark.parametrize("cells, error", [
        (dict(evidence=None, sims=[0.5, None, None, None]), "trial 0: evidence must be NA"),
        (dict(evidence=0.5, sims=[None] * 4), "trial 0: evidence must be NA"),
        (dict(final=np.nan), "trial 0: final score is NA"),
        (dict(test="b\rx"), "no tab or line break"),
    ], ids=["na_evidence_with_phone", "evidence_without_phone", "na_final", "line_break_in_id"])
    def test_refuses_a_row_load_would_reject(self, tmp_path, cells, error):
        # The table refuses a bad value itself; the writer checks the ids.
        if error.startswith("trial"):
            with pytest.raises(ConfigurationError, match=error):
                table([row(**cells)])
        else:
            scores = table([row(**cells)])
            with pytest.raises(ConfigurationError, match=error):
                export_explanation(scores, 0, tiny_inventory(), tmp_path / "explanation.txt")
        assert list(tmp_path.iterdir()) == []

    def test_inventory_size_checked(self):
        with pytest.raises(ConfigurationError):
            export_explanation(table([row(n_phones=3)]), 0, tiny_inventory(), "unused.txt")


class TestReportFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.txt"
        write_report([("eer", 0.125), ("threshold", -0.5), ("n_target", 250)], path)
        back = read_report(path)
        assert back["eer"] == "0.125"
        assert back["threshold"] == "-0.5"
        assert back["n_target"] == "250"
